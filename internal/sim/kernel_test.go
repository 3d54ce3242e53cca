package sim

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.At(30, func() { got = append(got, 3) })
	k.At(10, func() { got = append(got, 1) })
	k.At(20, func() { got = append(got, 2) })
	k.At(10, func() { got = append(got, 4) }) // same time: FIFO by seq
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 4, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 30 {
		t.Fatalf("Now = %v, want 30", k.Now())
	}
}

func TestTimeMonotone(t *testing.T) {
	// Property: regardless of the (possibly unsorted, duplicated) schedule,
	// observed event times are non-decreasing.
	f := func(offsets []uint16) bool {
		k := NewKernel()
		last := Time(-1)
		ok := true
		for _, o := range offsets {
			at := Time(o)
			k.At(at, func() {
				if k.Now() < last {
					ok = false
				}
				last = k.Now()
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	k := NewKernel()
	var woke Time
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		woke = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if woke != Time(5*Microsecond) {
		t.Fatalf("woke at %v, want 5µs", woke)
	}
}

func TestSleepLatencyHook(t *testing.T) {
	k := NewKernel(WithHooks(fixedLatency{latency: 58 * Microsecond}))
	var woke Time
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(2 * Microsecond)
		woke = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if woke != Time(60*Microsecond) {
		t.Fatalf("woke at %v, want 60µs", woke)
	}
}

type fixedLatency struct{ latency Duration }

func (f fixedLatency) SleepLatency(*RNG, Duration) Duration   { return f.latency }
func (fixedLatency) ExecJitter(*RNG, Duration) Duration       { return 0 }
func (fixedLatency) ConstraintHazard(*RNG, Duration) Duration { return 0 }

func TestParkWake(t *testing.T) {
	k := NewKernel()
	var got int
	var at Time
	var waiter *Proc
	waiter = k.Spawn("waiter", func(p *Proc) {
		got = p.Park()
		at = p.Now()
	})
	k.Spawn("waker", func(p *Proc) {
		p.Sleep(100)
		waiter.Wake(10, 42)
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 42 {
		t.Fatalf("Park = %d, want 42", got)
	}
	if at != 110 {
		t.Fatalf("woke at %v, want 110", at)
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel()
	k.Spawn("stuck", func(p *Proc) { p.Park() })
	err := k.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	if len(dl.Procs) != 1 || dl.Procs[0] != "stuck" {
		t.Fatalf("blocked procs = %v, want [stuck]", dl.Procs)
	}
}

func TestInterleavingDeterminism(t *testing.T) {
	run := func(seed uint64) []Time {
		k := NewKernel(WithSeed(seed))
		var stamps []Time
		for i := 0; i < 4; i++ {
			k.Spawn("p", func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(Duration(1 + p.Kernel().Rand().Intn(100)))
					stamps = append(stamps, p.Now())
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return stamps
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if i >= len(c) || a[i] != c[i] {
			same = false
			break
		}
	}
	if same && len(a) == len(c) {
		t.Fatal("different seeds produced identical schedules; RNG not wired")
	}
}

func TestHorizonStopsRun(t *testing.T) {
	k := NewKernel(WithHorizon(Time(50)))
	fired := false
	k.Spawn("late", func(p *Proc) {
		p.Sleep(100)
		fired = true
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if k.Now() != 50 {
		t.Fatalf("Now = %v, want horizon 50", k.Now())
	}
}

func TestStop(t *testing.T) {
	k := NewKernel()
	n := 0
	k.Spawn("loop", func(p *Proc) {
		for {
			p.Sleep(10)
			n++
			if n == 3 {
				p.Kernel().Stop()
			}
		}
	})
	if err := k.Run(); !errors.Is(err, ErrStopped) {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if n != 3 {
		t.Fatalf("iterations = %d, want 3", n)
	}
}

func TestYieldFIFO(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("a", func(p *Proc) {
		for i := 0; i < 3; i++ {
			order = append(order, "a")
			p.Yield()
		}
	})
	k.Spawn("b", func(p *Proc) {
		for i := 0; i < 3; i++ {
			order = append(order, "b")
			p.Yield()
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"a", "b", "a", "b", "a", "b"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTraceRecords(t *testing.T) {
	tr := NewTrace(0)
	k := NewKernel(WithTrace(tr))
	k.Spawn("p", func(p *Proc) {
		p.Sleep(10)
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := len(tr.Filter("sleep")); got != 1 {
		t.Fatalf("sleep trace entries = %d, want 1", got)
	}
	if got := len(tr.Filter("exit")); got != 1 {
		t.Fatalf("exit trace entries = %d, want 1", got)
	}
}

func TestTraceCapacity(t *testing.T) {
	tr := NewTrace(2)
	k := NewKernel(WithTrace(tr))
	k.Spawn("p", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(1)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if tr.Len() != 2 {
		t.Fatalf("retained = %d, want 2", tr.Len())
	}
	if tr.Dropped() == 0 {
		t.Fatal("expected drops")
	}
}

func TestWakeNonParkedPanics(t *testing.T) {
	k := NewKernel()
	runner := k.Spawn("runner", func(p *Proc) { p.Sleep(1000) })
	k.Spawn("bad", func(p *Proc) {
		p.Sleep(1)
		runner.Wake(0, 0) // runner is sleeping, not parked
		p.Sleep(1)        // let the wake event fire
	})
	defer func() {
		if recover() == nil {
			t.Error("Wake of sleeping proc did not panic at fire time")
		}
	}()
	_ = k.Run()
}

func TestWakeOfFinishedProcPanics(t *testing.T) {
	k := NewKernel()
	done := k.Spawn("done", func(p *Proc) {})
	k.Spawn("waker", func(p *Proc) {
		p.Sleep(10)
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("Wake of finished process did not panic at call time")
			}
			if want := `sim: Wake of finished process "done"`; r != want {
				t.Fatalf("panic = %v, want %q", r, want)
			}
		}()
		done.Wake(0, 1)
	})
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// pingPongScript spawns the minimal steady-state trial shape: the sender
// marks a window per symbol, sleeps a symbol-dependent time, and wakes
// the parked receiver, which timestamps the gap into out.
func pingPongScript(k *Kernel, syms []int, out *[]Time) {
	rcv := k.Spawn("rcv", func(p *Proc) {
		for range syms {
			p.Park()
			*out = append(*out, p.Now())
		}
	})
	k.Spawn("snd", func(p *Proc) {
		for _, s := range syms {
			p.k.MarkWindow()
			p.Sleep(Duration(10 + 5*s))
			rcv.Wake(3, s)
		}
	})
}

// TestStepMatchesRun drives the same ping-pong through the Run loop (a
// migrating host chain with in-place handoff) and the Step dispatcher
// (one event per call, no hosting) and demands identical transcripts.
func TestStepMatchesRun(t *testing.T) {
	syms := []int{0, 1, 1, 0, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 1}
	var ran, stepped []Time
	k := NewKernel()
	pingPongScript(k, syms, &ran)
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	k = NewKernel()
	pingPongScript(k, syms, &stepped)
	for k.Step() {
	}
	if len(ran) != len(syms) {
		t.Fatalf("Run transcript has %d entries, want %d", len(ran), len(syms))
	}
	if fmt.Sprint(stepped) != fmt.Sprint(ran) {
		t.Fatalf("Step diverged from Run:\n got %v\nwant %v", stepped, ran)
	}
}

// TestCountersSurviveReset pins the perf counters' lifetime: switches and
// symbol windows accumulate across Reset (the bench harness reads deltas
// across pooled trials) and are cleared only by Release.
func TestCountersSurviveReset(t *testing.T) {
	var out []Time
	k := NewKernel()
	syms := []int{0, 1, 0, 1, 0, 1, 0, 1}
	pingPongScript(k, syms, &out)
	if err := k.Run(); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if got := k.Windows(); got != uint64(len(syms)) {
		t.Fatalf("marked %d windows, want %d", got, len(syms))
	}
	switches := k.Switches()
	k.Reset()
	if k.Switches() != switches || k.Windows() != uint64(len(syms)) {
		t.Fatalf("reset cleared counters: switches %d→%d, windows %d→%d",
			switches, k.Switches(), len(syms), k.Windows())
	}
	k.Spawn("plain", func(p *Proc) { p.Sleep(5) })
	if err := k.Run(); err != nil {
		t.Fatalf("second run: %v", err)
	}
	if k.Switches() <= switches {
		t.Fatalf("second run added no switches (%d)", k.Switches())
	}
	k.Release()
	if k.Switches() != 0 || k.Windows() != 0 {
		t.Fatalf("release kept counters: switches %d, windows %d", k.Switches(), k.Windows())
	}
}

// TestSwitchCounter pins the switch accounting switches per bit depends
// on: one ping-pong round is one switch into each body.
func TestSwitchCounter(t *testing.T) {
	k := NewKernel()
	SpawnPingPong(k, 100)
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if k.Switches() == 0 {
		t.Fatal("switch counter never incremented")
	}
}
