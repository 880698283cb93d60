//go:build benchprof

// This file is not part of any package in this directory: scripts/benchprof.sh
// overlays it into bench/ (go build -overlay, -tags benchprof), where it
// profiles the benchmark program without a line of bench/ changing. The
// program offers no hook at exit, so the profiles are written after a
// fixed time from process start; pick one shorter than the run.
package main

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"
)

func init() {
	dir := os.Getenv("ODE_BENCHPROF_DIR")
	secs, err := strconv.ParseFloat(os.Getenv("ODE_BENCHPROF_SECONDS"), 64)
	if dir == "" || err != nil {
		return
	}
	cpu, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		panic(err)
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		panic(err)
	}
	go func() {
		time.Sleep(time.Duration(secs * float64(time.Second)))
		pprof.StopCPUProfile()
		cpu.Close()
		allocs, err := os.Create(filepath.Join(dir, "allocs.pprof"))
		if err != nil {
			panic(err)
		}
		runtime.GC() // the allocs profile is as of the last collection
		if err := pprof.Lookup("allocs").WriteTo(allocs, 0); err != nil {
			panic(err)
		}
		allocs.Close()
	}()
}
