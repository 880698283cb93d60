module ode/bench

go 1.22

require ode v0.0.0

replace ode => ../
