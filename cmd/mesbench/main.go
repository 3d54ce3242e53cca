// Command mesbench regenerates the paper's tables and figures.
//
// Usage:
//
//	mesbench -list
//	mesbench -exp table4
//	mesbench -exp crossmech -quick    # full family incl. Futex/CondVar/WriteSync
//	mesbench -exp fig9a -bits 40000 -seed 7
//	mesbench -all -quick
//	mesbench -all -workers 8
//	mesbench -exp fig9a -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Experiment parameter grids fan out across a worker pool (internal/runner)
// with worker-affine trial sessions (core.SessionCache): each worker pins
// one warmed simulated machine per channel substrate and consecutive cells
// only reset and reseed it. -workers bounds the pool and defaults to
// GOMAXPROCS. Output is bit-identical for any worker count. Interrupting
// (Ctrl-C) cancels the sweep in flight.
//
// Performance is measured by the separate bench/ module (see
// bench/README.md); -cpuprofile and -memprofile profile one run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"runtime/pprof"

	"mes/internal/core"
	"mes/internal/experiments"
)

func main() {
	// mesbench is a batch regenerator: its steady-state heap is a few MB
	// of pooled simulation machinery, so the default GOGC=100 runs a
	// collection every few MB of short-lived render garbage for no memory
	// benefit. Back off the GC unless the operator asked for a specific
	// setting.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(800)
	}
	// All work happens in realMain so its defers — notably the pprof
	// writers — run before the process exits, even on failure paths.
	os.Exit(realMain())
}

func realMain() int {
	var (
		exp        = flag.String("exp", "", "experiment name (see -list)")
		all        = flag.Bool("all", false, "run every experiment")
		list       = flag.Bool("list", false, "list experiments")
		bits       = flag.Int("bits", 0, "payload bits per measured point (default 20000)")
		seed       = flag.Uint64("seed", 1, "random seed (equal seeds replay identically)")
		quick      = flag.Bool("quick", false, "reduced payload for a fast pass")
		workers    = flag.Int("workers", 0, "parallel trials per experiment sweep (0 = GOMAXPROCS; any value yields identical output)")
		faultRate  = flag.Float64("faultrate", 0, "inject deterministic kernel faults at this per-consult rate into every trial (0 = off; the faultsweep experiment pins its own axis)")
		faultSeed  = flag.Uint64("faultseed", 0, "seed of the injected-fault substream (only with -faultrate)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memProfile == "" {
			return
		}
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-12s %s\n", e.Name, e.Paper)
		}
		return 0
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	opt := experiments.Options{Bits: *bits, Seed: *seed, Quick: *quick, Workers: *workers, Ctx: ctx,
		FaultRate: *faultRate, FaultSeed: *faultSeed}
	switch {
	case *all:
		for _, e := range experiments.Registry() {
			fmt.Printf("==== %s — %s ====\n", e.Name, e.Paper)
			out, err := e.Run(opt)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %s\n", e.Name, failureMessage(err))
				if ctx.Err() != nil {
					return 1
				}
				continue
			}
			fmt.Println(out)
		}
	case *exp != "":
		e, err := experiments.Lookup(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		out, err := e.Run(opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, failureMessage(err))
			return 1
		}
		fmt.Println(out)
	default:
		flag.Usage()
		return 2
	}
	return 0
}

// failureMessage classifies a sweep failure by core's typed error
// taxonomy: the sentinels survive every wrapping layer (trial context,
// runner.Map), so the exit message can say what killed the sweep instead
// of only where.
func failureMessage(err error) string {
	switch {
	case errors.Is(err, core.ErrCrashed):
		return fmt.Sprintf("trial lost a process to an injected crash: %v", err)
	case errors.Is(err, core.ErrDeadlock):
		return fmt.Sprintf("trial deadlocked: %v", err)
	case errors.Is(err, core.ErrSyncLoss):
		return fmt.Sprintf("trial lost symbol sync beyond recovery: %v", err)
	case errors.Is(err, core.ErrCalibration):
		return fmt.Sprintf("decoder calibration failed: %v", err)
	default:
		return err.Error()
	}
}
