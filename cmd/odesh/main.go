// odesh is an interactive shell for exploring Ode composite events: it
// defines classes with auto-generated accessor methods, declares
// triggers in the paper's syntax, posts events through method calls,
// drives the virtual clock, and shows automaton states as they move.
//
// Usage:
//
//	odesh            # interactive
//	odesh script.ode # run a script (same commands), then exit
//	odesh -dir DIR … # on a persistent database in DIR: objects, their
//	                 # activations and automaton states outlive the shell
//	                 # (declare and register the classes again)
//
// Commands (try `help` inside the shell):
//
//	defclass account balance:int=1000 owner:string
//	defmethod account audit read
//	deftrigger account Large(): perpetual after set_balance(v) && v < 100 ==> print
//	register account
//	new account                      → @1
//	activate @1 Large
//	call @1 set_balance 50           → [Large] fired at @1
//	advance 2h30m
//	state @1 Large
//	history @1
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
)

func main() {
	dir := flag.String("dir", "", "persistence directory (default: a volatile database)")
	flag.Parse()
	sh, err := newShell(os.Stdout, *dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "odesh:", err)
		os.Exit(1)
	}
	defer sh.close()

	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "odesh:", err)
			os.Exit(1)
		}
		defer f.Close()
		sh.run(bufio.NewScanner(f), false)
		return
	}
	fmt.Println("odesh — Ode composite-event shell (type 'help')")
	sh.run(bufio.NewScanner(os.Stdin), true)
}
