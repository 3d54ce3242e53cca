package experiments

import (
	"context"
	"hash/fnv"
	"slices"

	"mes/internal/core"
	"mes/internal/runner"
	"mes/internal/sim"
)

// runAll fans a parameter grid through the shared worker pool: every
// generator in this package declares its sweep as a slice of trial configs
// and maps run over it here. Results come back in grid order, so rendered
// output is byte-identical for any Options.Workers value; the first
// (lowest-index) trial error aborts the sweep, and Options.Ctx cancels it.
//
// Trials must be self-contained — payloads, seeds and parameters are frozen
// into the trial config before fan-out (per-trial seeds come from
// runner.TrialSeed where a grid needs independent noise streams), never
// drawn from shared state inside run.
func runAll[T, R any](o Options, trials []T, run func(T) (R, error)) ([]R, error) {
	return runner.Map(o.ctx(), trials,
		func(_ context.Context, t T) (R, error) { return run(t) },
		runner.Workers(o.Workers))
}

// runThunks fans a grid of self-contained trial thunks: the form used by
// generators whose cells differ in shape (Baselines' four channels,
// Detector's covert-vs-benign pair) rather than in parameters.
func runThunks[R any](o Options, grid []func() (R, error)) ([]R, error) {
	return runAll(o, grid, func(run func() (R, error)) (R, error) { return run() })
}

// runTrials fans a grid of core transmissions through per-worker trial
// sessions (core.SessionCache via runner.MapWith): each worker pins one
// session per channel substrate, so consecutive cells on that worker only
// reset and reseed a warmed simulated machine instead of rebuilding one
// per trial. cfg freezes the cell's full transmission config before
// fan-out; post consumes the trial's Result together with its error
// (experiments that expect a cell to die, like the fairness ablation, turn
// the error into data).
//
// The Result handed to post borrows the worker's session buffers and is
// valid only during the call — post must copy any slice it keeps
// (SentSyms, being immutable, is the one exception). Outputs remain
// byte-identical for any worker count, on first and recycled passes
// (TestRegistryDeterministicAcrossPoolingAndWorkers).
func runTrials[T, R any](o Options, trials []T, cfg func(T) core.Config, post func(t T, res *core.Result, err error) (R, error)) ([]R, error) {
	return runner.MapWith(o.ctx(), trials,
		core.NewSessionCache, (*core.SessionCache).Close,
		func(_ context.Context, sc *core.SessionCache, t T) (R, error) {
			c := cfg(t)
			if c.FaultRate == 0 && o.FaultRate != 0 {
				// Global fault injection (mesbench -faultrate): trials that
				// declare no rate of their own inherit the sweep-wide one.
				// Cells pinned fault-free carry the negative sentinel, which
				// core normalizes to rate 0.
				c.FaultRate = o.FaultRate
				c.FaultSeed = o.FaultSeed
			}
			res, err := runTrial(sc, c)
			return post(t, res, err)
		},
		runner.Workers(o.Workers))
}

// faultRateNone pins a trial fault-free even when a sweep-wide
// Options.FaultRate is set: core.prepare normalizes negative rates to 0,
// and the runTrials injection above only overrides rate-0 configs.
const faultRateNone = -1

// trialResults memoizes completed transmissions across sweeps by their
// full effective configuration. Several registry experiments measure the
// same cell — crossmech's paper rows are exactly Table IV/V's, multibit's
// 1-bit row is Table IV's Event row — and a trial's Result is a pure
// function of its config, so recomputing such a cell buys nothing. Keys
// resolve defaults (params, sync length, setup delay) so an explicit
// default and the zero value share an entry; traced trials bypass the
// memo (their side effect is the trace, which must record every run).
var trialResults = runner.NewCache()

// trialMemoCap bounds the memo. Full-fidelity sweeps hold ~100 unique
// cells; beyond the cap new cells run uncached (hits still serve).
const trialMemoCap = 256

// resetSweepCaches clears both memo layers: the per-experiment sweep
// cache and the cross-sweep trial memo. Determinism tests call it between
// renderings so every configuration really recomputes.
func resetSweepCaches() {
	sweeps.Reset()
	trialResults.Reset()
}

// ResetCaches drops every memoized sweep and trial result. The bench/
// module calls it before each timed registry run so a wall-clock number
// never reflects another measurement's warm cache; regular sweep
// pipelines should leave the caches alone.
func ResetCaches() { resetSweepCaches() }

// runTrial routes one cell through the cross-sweep memo and the worker's
// session cache. Memoized Results are deep copies: the session's borrowed
// buffers never outlive the trial, and every consumer of a shared entry
// sees the same immutable value.
func runTrial(sc *core.SessionCache, cfg core.Config) (*core.Result, error) {
	if cfg.Trace != nil {
		return sc.Run(cfg)
	}
	key := trialKey(&cfg)
	if trialResults.Len() >= trialMemoCap && !trialResults.Has(key) {
		// Over the bound: new cells run uncached, existing entries still
		// serve hits.
		return sc.Run(cfg)
	}
	return runner.Do(trialResults, key, func() (*core.Result, error) {
		res, err := sc.Run(cfg)
		if err != nil {
			return nil, err
		}
		return cloneResult(res), nil
	})
}

// trialKey fingerprints everything a transmission's Result depends on,
// with defaults resolved exactly as core.Run resolves them.
func trialKey(cfg *core.Config) string {
	par := cfg.Params
	if par == (core.Params{}) {
		par = core.DefaultParams(cfg.Mechanism, cfg.Scenario.Isolation)
	}
	syncLen := cfg.SyncLen
	if syncLen == 0 {
		syncLen = 8
	}
	setup := cfg.SetupDelay
	if setup == 0 {
		setup = 200 * sim.Microsecond
	}
	// The fault axis, normalized as core normalizes it: negative rates are
	// the fault-free sentinel, and the fault seed only matters when faults
	// actually fire.
	frate, fseed := cfg.FaultRate, cfg.FaultSeed
	if frate <= 0 {
		frate, fseed = 0, 0
	}
	h := fnv.New64a()
	h.Write(cfg.Payload)
	return runner.Fingerprint(int(cfg.Mechanism), cfg.Scenario, par, syncLen,
		cfg.Seed, cfg.Noiseless, cfg.DisableInterBitSync, cfg.UnfairCompetition,
		int64(setup), len(cfg.Payload), h.Sum64(), frate, fseed, cfg.Recover)
}

// cloneResult deep-copies a borrowed session Result into an owned one.
// SentSyms is immutable by the session contract and safely shared.
func cloneResult(res *core.Result) *core.Result {
	out := *res
	out.Latencies = slices.Clone(res.Latencies)
	out.DecodedSyms = slices.Clone(res.DecodedSyms)
	out.ReceivedBits = slices.Clone(res.ReceivedBits)
	if res.Decoder != nil {
		dec := *res.Decoder
		out.Decoder = &dec
	}
	return &out
}
