package core

import (
	"errors"
	"runtime"
	"slices"
	"testing"

	"mes/internal/codec"
	"mes/internal/sim"
)

// TestSessionCrashedTrialsDoNotPoison is the injected-crash extension of
// TestSessionDeadlockedTrialDoesNotPoison: trials that lose a process to
// the kernel fault plane must classify as ErrCrashed with the exact
// error the one-shot path reports, must not leak goroutines across ten
// crashes (the machine is released, not parked half-dead), must keep
// KernelStats monotonic through every release, and must leave the
// session able to run a fault-free trial byte-identical to a fresh
// one-shot run.
func TestSessionCrashedTrialsDoNotPoison(t *testing.T) {
	payload := sessionTestPayload(200)
	fair := Config{Mechanism: Flock, Scenario: Local(), Payload: payload, Seed: 7}
	wantFair, err := Run(fair)
	if err != nil {
		t.Fatal(err)
	}

	// Scan seeds for configurations whose one-shot run dies to an
	// injected crash; the fault schedule is deterministic, so the same
	// configs crash identically inside the session.
	var crashing []Config
	var wantErrs []string
	for seed := uint64(1); seed <= 400 && len(crashing) < 10; seed++ {
		cfg := fair
		cfg.Seed = seed
		cfg.FaultRate = 0.05
		cfg.FaultSeed = seed ^ 0xfa17
		_, err := Run(cfg)
		if err != nil && errors.Is(err, ErrCrashed) {
			crashing = append(crashing, cfg)
			wantErrs = append(wantErrs, err.Error())
		}
	}
	if len(crashing) < 10 {
		t.Fatalf("only %d of 400 seeds crashed at rate 0.05; the crash class is not firing", len(crashing))
	}

	s, err := NewSession(fair)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.RunConfig(fair); err != nil {
		t.Fatalf("fair trial before the crashes: %v", err)
	}

	runtime.GC()
	base := runtime.NumGoroutine()
	prevSw, _, prevTot := s.KernelStats()
	for i, cfg := range crashing {
		_, err := s.RunConfig(cfg)
		if err == nil {
			t.Fatal("crashing config survived inside the session")
		}
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("session trial %d failed with %v, want ErrCrashed", i, err)
		}
		if err.Error() != wantErrs[i] {
			t.Fatalf("session crash error %q, one-shot error %q", err, wantErrs[i])
		}
		sw, _, tot := s.KernelStats()
		if sw < prevSw || tot < prevTot {
			t.Fatalf("KernelStats went backwards across crash %d: (%d,%d) -> (%d,%d)",
				i, prevSw, prevTot, sw, tot)
		}
		prevSw, prevTot = sw, tot
	}
	// Crashed trials release the machine; their coroutines must be gone.
	for i := 0; i < 100 && runtime.NumGoroutine() > base; i++ {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > base+2 {
		t.Errorf("goroutines grew from %d to %d across crashed session trials", base, n)
	}

	got, err := s.RunConfig(fair)
	if err != nil {
		t.Fatalf("fair trial after the crashes: %v", err)
	}
	if !slices.Equal(got.Latencies, wantFair.Latencies) || got.BER != wantFair.BER {
		t.Error("post-crash session trial diverged from the one-shot path: machine state leaked across the failure")
	}
}

// TestRecoverRescuesTimedOutTrial pins the self-healing layer's win at
// the unit level: at a fault rate that makes the unrecovered channel
// collapse or die, the same configuration with Recover set must complete
// with a strictly lower BER. (The sweep-level version of this assertion
// is experiments.TestFaultSweepMonotoneAndDominance.)
func TestRecoverRescuesTimedOutTrial(t *testing.T) {
	base := Config{
		Mechanism: Event,
		Scenario:  Local(),
		Payload:   sessionTestPayload(240),
		Seed:      5,
		FaultRate: 0.02,
		FaultSeed: 0xfa17,
	}
	offBER := 0.5 // a dead trial scores as a coin-flip channel
	if res, err := Run(base); err == nil {
		offBER = res.BER
	} else if !errors.Is(err, ErrCrashed) && !errors.Is(err, ErrDeadlock) &&
		!errors.Is(err, ErrSyncLoss) && !errors.Is(err, ErrCalibration) {
		t.Fatalf("recovery-off trial failed outside the typed taxonomy: %v", err)
	}
	rec := base
	rec.Recover = true
	res, err := Run(rec)
	if err != nil {
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("recovered trial failed: %v", err)
		}
		t.Skip("injected crash killed the recovered trial too; dominance covered by the sweep test")
	}
	if res.BER >= offBER {
		t.Errorf("recovery-on BER %.4f did not beat recovery-off %.4f at rate %.3f",
			res.BER, offBER, base.FaultRate)
	}
	if res.Resyncs == 0 && res.BER > 0.1 {
		t.Errorf("high BER %.4f with zero resyncs: the re-lock path never engaged", res.BER)
	}
}

// TestDeadlockWaitersIndependentOfEngine pins that a deadlock's wait-for
// snapshot names the same resources whichever engine path ran the trial:
// Run, or a session whose first trial used another seed. Object names
// come from the trial's own configuration, never from the session's
// history.
func TestDeadlockWaitersIndependentOfEngine(t *testing.T) {
	payload := codec.Random(sim.NewRNG(1), 200)
	for _, m := range []Mechanism{Event, Mutex, Flock} {
		cfg := Config{Mechanism: m, Scenario: Local(), Payload: payload, Seed: 2, FaultRate: 0.01, FaultSeed: 3}
		var want *DeadlockError
		if _, err := Run(cfg); !errors.As(err, &want) {
			t.Fatalf("%v: Run error %v, want a deadlock", m, err)
		}
		if len(want.Waiters) == 0 {
			t.Fatalf("%v: deadlock carries no waiters", m)
		}

		s, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Run(999) // any outcome: only the session's history matters
		var got *DeadlockError
		_, err = s.RunConfig(cfg)
		s.Close()
		if !errors.As(err, &got) {
			t.Fatalf("%v: session error %v, want a deadlock", m, err)
		}
		if !slices.Equal(got.Waiters, want.Waiters) {
			t.Errorf("%v: session waiters %q, Run waiters %q", m, got.Waiters, want.Waiters)
		}
	}
}
