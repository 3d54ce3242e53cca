package core

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"weak"

	"mes/internal/codec"
	"mes/internal/runner"
	"mes/internal/sim"
)

// sessionTestPayload is a small fixed payload for session tests.
func sessionTestPayload(bits int) codec.Bits {
	return codec.Random(sim.NewRNG(41), bits)
}

// TestSessionMatchesRunByteForByte is the session engine's core contract:
// every trial of a pinned session produces exactly the Result the one-shot
// Run path produces for the same configuration — across seeds, payloads
// and parameter changes, and across both a cooperation and a contention
// (shared-file) mechanism.
func TestSessionMatchesRunByteForByte(t *testing.T) {
	for _, mech := range []Mechanism{Event, Flock} {
		base := Config{
			Mechanism: mech,
			Scenario:  Local(),
			Payload:   sessionTestPayload(300),
		}
		s, err := NewSession(base)
		if err != nil {
			t.Fatalf("%v: NewSession: %v", mech, err)
		}
		trials := []Config{
			{Mechanism: mech, Scenario: Local(), Payload: base.Payload, Seed: 3},
			{Mechanism: mech, Scenario: Local(), Payload: base.Payload, Seed: runner.TrialSeed(3, 1)},
			// A different payload and explicit params mid-session.
			{Mechanism: mech, Scenario: Local(), Payload: sessionTestPayload(200),
				Params: DefaultParams(mech, 0), Seed: 5},
			// Back to the first shape: the session must replay it exactly.
			{Mechanism: mech, Scenario: Local(), Payload: base.Payload, Seed: 3},
		}
		for i, cfg := range trials {
			got, err := s.RunConfig(cfg)
			if err != nil {
				t.Fatalf("%v trial %d: session: %v", mech, i, err)
			}
			// Clone the borrowed slices before the reference Run recycles
			// pooled state.
			gotLat := slices.Clone(got.Latencies)
			gotBits := slices.Clone(got.ReceivedBits)
			gotSyms := got.SentSyms // immutable: safe to hold
			gotBER, gotTR, gotSync := got.BER, got.TRKbps, got.SyncOK

			want, err := Run(cfg)
			if err != nil {
				t.Fatalf("%v trial %d: one-shot: %v", mech, i, err)
			}
			if !slices.Equal(gotLat, want.Latencies) {
				t.Errorf("%v trial %d: latencies diverge from the one-shot path", mech, i)
			}
			if !slices.Equal(gotSyms, want.SentSyms) {
				t.Errorf("%v trial %d: sent symbols diverge", mech, i)
			}
			if !slices.Equal(gotBits, want.ReceivedBits) {
				t.Errorf("%v trial %d: received bits diverge", mech, i)
			}
			if gotBER != want.BER || gotTR != want.TRKbps || gotSync != want.SyncOK {
				t.Errorf("%v trial %d: metrics diverge: session (BER=%v TR=%v sync=%v) vs run (BER=%v TR=%v sync=%v)",
					mech, i, gotBER, gotTR, gotSync, want.BER, want.TRKbps, want.SyncOK)
			}
		}
		s.Close()
	}
}

// TestSessionRejectsForeignSubstrate pins the session's scope: trials may
// vary parameters, payloads, seeds and flags, but not the mechanism or
// scenario the session's machine and kernel objects were built for.
func TestSessionRejectsForeignSubstrate(t *testing.T) {
	s, err := NewSession(Config{Mechanism: Event, Scenario: Local(), Payload: sessionTestPayload(64)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.RunConfig(Config{Mechanism: Mutex, Scenario: Local(), Payload: sessionTestPayload(64), Seed: 1}); err == nil {
		t.Error("session accepted a trial for a different mechanism")
	}
	if _, err := s.RunConfig(Config{Mechanism: Event, Scenario: CrossSandbox(), Payload: sessionTestPayload(64), Seed: 1}); err == nil {
		t.Error("session accepted a trial for a different scenario")
	}
	s.Close()
	if _, err := s.Run(1); err == nil {
		t.Error("closed session accepted a trial")
	}
}

// TestSessionDeadlockedTrialDoesNotPoison is the mid-session error path:
// a trial that deadlocks (the §V.B unfair-competition ablation starves
// the channel) must release the machine — no goroutines may accumulate
// across failing trials — and subsequent trials on the same session must
// replay exactly like fresh one-shot runs.
func TestSessionDeadlockedTrialDoesNotPoison(t *testing.T) {
	payload := sessionTestPayload(200)
	fair := Config{Mechanism: Flock, Scenario: Local(), Payload: payload, Seed: 7}
	unfair := fair
	unfair.UnfairCompetition = true
	unfair.DisableInterBitSync = true

	// Reference outcomes from the one-shot path.
	wantFair, err := Run(fair)
	if err != nil {
		t.Fatal(err)
	}
	_, wantErr := Run(unfair)
	if wantErr == nil {
		t.Fatal("one-shot unfair run unexpectedly survived; the ablation needs a dying trial")
	}

	s, err := NewSession(fair)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.RunConfig(fair); err != nil {
		t.Fatalf("fair trial before the deadlock: %v", err)
	}

	runtime.GC()
	base := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		_, err := s.RunConfig(unfair)
		if err == nil {
			t.Fatal("unfair session trial unexpectedly survived")
		}
		if err.Error() != wantErr.Error() {
			t.Fatalf("session error %q, one-shot error %q", err, wantErr)
		}
	}
	// The deadlocked trials' coroutines must have been unwound each time
	// (Release), not parked: ten failing trials may not grow the goroutine
	// count. Give exiting goroutines a few cycles first.
	for i := 0; i < 100 && runtime.NumGoroutine() > base; i++ {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > base+2 {
		t.Errorf("goroutines grew from %d to %d across deadlocked session trials", base, n)
	}

	// The machine was released mid-session; the next trial must still be
	// byte-identical to the fresh one-shot run.
	got, err := s.RunConfig(fair)
	if err != nil {
		t.Fatalf("fair trial after the deadlocks: %v", err)
	}
	if !slices.Equal(got.Latencies, wantFair.Latencies) || got.BER != wantFair.BER {
		t.Error("post-deadlock session trial diverged from the one-shot path: machine state leaked across the failure")
	}
}

// TestSessionKernelStatsMonotonicAcrossDeadlock is the regression test for
// the bench-harness delta underflow: mesbench derives switches-per-bit
// from uint64 deltas of Session.KernelStats between two reads, but a deadlocked trial between the reads takes the
// releaseMachine recovery path, which used to clear the raw counters the
// session reported. With more history accumulated before the deadlock
// than after it, the second read then came back *smaller* and the
// subtraction wrapped to ~1.8e19. KernelStats must be monotonic across
// the mid-session recovery.
//
// The deadlocked trial is forced via the recovery seam itself: no public
// Config deterministically reaches a genuine kernel deadlock (the unfair
// Flock ablation fails later, at decoder calibration, without ever
// erroring out of Run — verified by scanning 900 payload×seed
// combinations), and the white-box call exercises byte-for-byte the same
// branch RunConfig takes when Run returns an error.
func TestSessionKernelStatsMonotonicAcrossDeadlock(t *testing.T) {
	payload := sessionTestPayload(200)
	fair := Config{Mechanism: Flock, Scenario: Local(), Payload: payload, Seed: 7}

	s, err := NewSession(fair)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Two fair trials bank more counter history than any single trial can
	// re-accumulate: if the recovery's Release zeroes what KernelStats
	// reports, the post-deadlock read is guaranteed smaller than this one.
	for i := 0; i < 2; i++ {
		if _, err := s.RunConfig(fair); err != nil {
			t.Fatalf("fair trial %d before the deadlock: %v", i, err)
		}
	}
	sw0, _, bits0 := s.KernelStats()
	if sw0 == 0 || bits0 == 0 {
		t.Fatalf("fair trials recorded no kernel activity (switches=%d, bits=%d)", sw0, bits0)
	}

	// The deadlocked-trial recovery path, exactly as RunConfig runs it
	// between the harness's two reads.
	s.releaseMachine()
	if _, err := s.RunConfig(fair); err != nil {
		t.Fatalf("fair trial after the deadlock: %v", err)
	}
	sw1, replayed, bits1 := s.KernelStats()

	if sw1 < sw0 || bits1 < bits0 {
		t.Fatalf("KernelStats moved backwards across a deadlocked trial: switches %d→%d, bits %d→%d",
			sw0, sw1, bits0, bits1)
	}
	if replayed != 0 {
		t.Errorf("KernelStats reported %d replayed bits, want 0 (there is no replay path)", replayed)
	}
	if bits1 == bits0 {
		t.Fatalf("post-deadlock fair trial marked no symbol windows (bits stuck at %d)", bits0)
	}
	// The exact derivation mesbench performs: with monotonic counters the
	// deltas stay in protocol range instead of wrapping.
	if spb := float64(sw1-sw0) / float64(bits1-bits0); spb <= 0 || spb > 1000 {
		t.Errorf("switches-per-bit delta %g out of protocol range: counter delta underflowed", spb)
	}
}

// TestSessionAllocsSteadyStateZero proves the headline property of the
// trial-session engine: after warm-up, a session trial performs zero heap
// allocations — the machine, coroutines, kernel objects, buffers, decoder
// and result storage are all reused in place.
func TestSessionAllocsSteadyStateZero(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates per instrumented operation")
	}
	s, err := NewSession(BenchConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	trial := 0
	run := func() {
		trial++
		if _, err := s.Run(runner.TrialSeed(1, trial)); err != nil {
			t.Fatal(err)
		}
	}
	// Trial 1 builds the machine; trial 2 rebuilds the coroutines the
	// one-shot first run let exit (recycling starts with the first Reset).
	// GC stays off during measurement so an incidental collection cannot
	// perturb the count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run()
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs > 0 {
		t.Errorf("session trial allocations = %.1f per trial, want 0 steady-state", allocs)
	}
}

// TestRunTrials covers the batched Monte-Carlo helper: per-seed results
// match the one-shot path and visit errors abort the batch.
func TestRunTrials(t *testing.T) {
	cfg := Config{Mechanism: Event, Scenario: Local(), Payload: sessionTestPayload(128)}
	seeds := []uint64{runner.TrialSeed(2, 0), runner.TrialSeed(2, 1), runner.TrialSeed(2, 2)}
	var bers []float64
	err := RunTrials(cfg, seeds, func(i int, res *Result) error {
		bers = append(bers, res.BER)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		one := cfg
		one.Seed = seed
		want, err := Run(one)
		if err != nil {
			t.Fatal(err)
		}
		if bers[i] != want.BER {
			t.Errorf("trial %d: BER %v, one-shot %v", i, bers[i], want.BER)
		}
	}
}

// TestSessionFamilyMatchesRun replays two trials of every mechanism in
// the family on a pinned session and checks them against the one-shot
// path: the rebind/retire machinery must hold for every channel
// substrate, not just the two the detailed test dissects.
func TestSessionFamilyMatchesRun(t *testing.T) {
	payload := sessionTestPayload(120)
	for _, mech := range Mechanisms() {
		cfg := Config{Mechanism: mech, Scenario: Local(), Payload: payload}
		s, err := NewSession(cfg)
		if err != nil {
			t.Fatalf("%v: %v", mech, err)
		}
		for trial := 0; trial < 2; trial++ {
			seed := runner.TrialSeed(11, trial)
			got, err := s.Run(seed)
			if err != nil {
				t.Fatalf("%v trial %d: %v", mech, trial, err)
			}
			gotBER, gotTR := got.BER, got.TRKbps
			one := cfg
			one.Seed = seed
			want, err := Run(one)
			if err != nil {
				t.Fatalf("%v trial %d one-shot: %v", mech, trial, err)
			}
			if gotBER != want.BER || gotTR != want.TRKbps {
				t.Errorf("%v trial %d: session BER=%v TR=%v vs one-shot BER=%v TR=%v",
					mech, trial, gotBER, gotTR, want.BER, want.TRKbps)
			}
		}
		s.Close()
	}
}

// TestRunRetainsNoTrace pins that a pooled session keeps no caller data:
// once Run returns and the caller drops its trace, nothing inside core
// still references it and a collection frees it.
func TestRunRetainsNoTrace(t *testing.T) {
	ref := func() weak.Pointer[sim.Trace] {
		tr := sim.NewTrace(0)
		cfg := Config{Mechanism: Flock, Scenario: Local(), Payload: sessionTestPayload(64), Seed: 3, Trace: tr}
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		return weak.Make(tr)
	}()
	runtime.GC()
	if ref.Value() != nil {
		t.Error("the trace survived a collection after Run returned: a pooled session or machine still holds it")
	}
}

// TestSessionCache covers the worker-affine cache: substrate keying,
// reuse across cells, agreement with Run, and error propagation from
// invalid configs.
func TestSessionCache(t *testing.T) {
	c := NewSessionCache()
	defer c.Close()
	cfg := Config{Mechanism: Event, Scenario: Local(), Payload: sessionTestPayload(64), Seed: 3}
	first, err := c.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ber := first.BER
	// Same substrate, different seed: reuses the pinned session.
	cfg2 := cfg
	cfg2.Seed = 4
	if _, err := c.Run(cfg2); err != nil {
		t.Fatal(err)
	}
	// A different substrate opens a second session.
	mcfg := cfg
	mcfg.Mechanism = Mutex
	if _, err := c.Run(mcfg); err != nil {
		t.Fatal(err)
	}
	if len(c.sessions) != 2 {
		t.Fatalf("cache holds %d sessions, want 2", len(c.sessions))
	}
	// The cached session replays the first cell exactly like Run.
	one, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if one.BER != ber {
		t.Errorf("Run BER %v, cached session %v", one.BER, ber)
	}
	// Invalid configs surface the same validation errors as Run.
	if _, err := c.Run(Config{Mechanism: Event, Scenario: Local()}); err == nil {
		t.Error("empty payload accepted")
	}
	c.Close()
	if len(c.sessions) != 0 {
		t.Error("Close left sessions behind")
	}
}

// BenchmarkSessionTrials measures one steady-state session trial — the
// batched sweep-cell unit, whose allocations TestSessionAllocsSteadyStateZero
// pins at 0. Compare with BenchmarkTransmission, the one-shot unit.
func BenchmarkSessionTrials(b *testing.B) {
	s, err := NewSession(BenchConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(runner.TrialSeed(1, i)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSwitchesPerBitBudget pins the work each mechanism does per
// transmitted symbol, exactly. Over four steady-state trials of a pinned
// session (after one warm-up trial, so spawn-time work amortizes) it
// counts the kernel's coroutine switches, symbol windows and events
// pushed on the heap, and one traced Run of the same config counts the
// syscall-level records (kobj, vfs and osmodel operations). The counts
// are deterministic, so the gate is equality and never flakes: an
// optimisation that silently adds a dispatch, an event or a syscall per
// bit fails it. An intended engine change updates the table; the
// failure message prints the measured row ready to paste.
func TestSwitchesPerBitBudget(t *testing.T) {
	type workCounts struct {
		switches, windows, events uint64 // summed over the four trials
		traced                    int    // Trace.Len of one traced Run
	}
	want := []struct {
		mech Mechanism
		work workCounts
	}{
		{Event, workCounts{1644, 1636, 3284, 1230}}, // cooperation: ~1 switch per bit
		{Timer, workCounts{1648, 1636, 4924, 821}},
		{CondVar, workCounts{1644, 1636, 3284, 1230}},
		{WriteSync, workCounts{1706, 1636, 3404, 1230}},  // journal wake, no barrier
		{FileLockEX, workCounts{2416, 1636, 4824, 1013}}, // contention, granted in place
		{Mutex, workCounts{2416, 1636, 4824, 1013}},
		{Flock, workCounts{3184, 1636, 6360, 2215}}, // contention + barrier round
		{Semaphore, workCounts{3099, 1636, 6190, 1013}},
		{Futex, workCounts{3184, 1636, 6360, 2215}},
	}
	for _, w := range want {
		cfg := Config{
			Mechanism: w.mech,
			Scenario:  Local(),
			Payload:   sessionTestPayload(400),
			Seed:      9,
		}
		s, err := NewSession(cfg)
		if err != nil {
			t.Fatalf("%v: NewSession: %v", w.mech, err)
		}
		if _, err := s.Run(9); err != nil { // warm: spawn switches amortize
			t.Fatalf("%v: warm-up trial: %v", w.mech, err)
		}
		var got workCounts
		sw0, _, win0 := s.KernelStats()
		for trial := 0; trial < 4; trial++ {
			if _, err := s.Run(runner.TrialSeed(9, trial)); err != nil {
				t.Fatalf("%v trial %d: %v", w.mech, trial, err)
			}
			got.events += s.sys.Kernel().Scheduled()
		}
		sw1, _, win1 := s.KernelStats()
		s.Close()
		got.switches, got.windows = sw1-sw0, win1-win0

		cfg.Trace = sim.NewTrace(0)
		if _, err := Run(cfg); err != nil {
			t.Fatalf("%v: traced run: %v", w.mech, err)
		}
		got.traced = cfg.Trace.Len()

		if got != w.work {
			t.Errorf("%v: work counts changed (switches, windows, events pushed, trace entries)\n got workCounts{%d, %d, %d, %d}\nwant workCounts{%d, %d, %d, %d}",
				w.mech, got.switches, got.windows, got.events, got.traced,
				w.work.switches, w.work.windows, w.work.events, w.work.traced)
		}
	}
}
