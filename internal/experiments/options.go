// Package experiments regenerates every table and figure of the paper's
// evaluation (§V–§VI) plus ablations and extensions of it. Each
// generator declares its parameter grid as a slice of trial configs and
// fans out through internal/runner's worker pool; transmission grids run
// through worker-affine trial sessions (runTrials: each worker pins one
// warmed simulated machine per channel substrate, core.SessionCache) with
// a cross-sweep memo for cells several experiments share. Generators
// return typed rows and can render themselves via internal/report.
// cmd/mesbench drives them by name through the Registry, which memoizes
// sweeps shared by several registry entries (fig9a/fig9b, table2/table3).
package experiments

import (
	"context"

	"mes/internal/codec"
	"mes/internal/sim"
)

// Options tunes experiment cost. The zero value selects full fidelity.
type Options struct {
	// Bits is the payload size per measured point (default 20000; sweeps
	// use a third of it).
	Bits int
	// Seed drives all randomness (default 1).
	Seed uint64
	// Quick reduces Bits for smoke tests and CI.
	Quick bool
	// Workers bounds how many grid cells run concurrently (default
	// runtime.GOMAXPROCS(0)). Every experiment's output is bit-identical
	// for any value; this only trades wall-clock for cores.
	Workers int
	// Ctx cancels a sweep mid-flight (default context.Background()).
	// Cancellation stops dispatching further grid cells and the experiment
	// returns the context's error.
	Ctx context.Context
	// FaultRate injects deterministic kernel faults (core.Config.FaultRate)
	// into every trial that does not set its own rate. Cells that must run
	// fault-free regardless (the fault sweep's baseline column) opt out
	// with the negative faultRateNone sentinel. 0 leaves every trial
	// untouched.
	FaultRate float64
	// FaultSeed decorrelates the injected fault substream from the noise
	// seed (core.Config.FaultSeed); only meaningful with FaultRate > 0.
	FaultSeed uint64
}

func (o Options) bits() int {
	if o.Quick {
		return 2000
	}
	if o.Bits == 0 {
		return 20000
	}
	return o.Bits
}

func (o Options) sweepBits() int {
	b := o.bits() / 2
	if b < 1000 {
		b = 1000
	}
	return b
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o Options) ctx() context.Context {
	if o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

func (o Options) payload(n int) codec.Bits {
	return codec.Random(sim.NewRNG(o.seed()^0x9e3779b9), n)
}
