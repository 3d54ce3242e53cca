package sim

import (
	"errors"
	"runtime"
	"testing"
)

// These tests pin the coroutine handoff's edge cases: deeply nested
// spawn-in-spawn chains, panic propagation out of process bodies, and
// Reset while processes are blocked mid-wait (including what their
// deferred functions may do on the way down).

// TestSpawnInSpawnDeep builds a 200-deep chain where each body spawns the
// next and parks until the child reports back, so at the deepest point all
// 200 coroutines are simultaneously suspended mid-body.
func TestSpawnInSpawnDeep(t *testing.T) {
	const depth = 200
	k := NewKernel()
	finished := 0
	parents := make(map[int]*Proc)
	var spawn func(level int)
	spawn = func(level int) {
		parents[level] = k.Spawn("nest", func(p *Proc) {
			p.Sleep(Duration(level + 1))
			if level+1 < depth {
				spawn(level + 1)
				v := p.Park()
				if v != level+1 {
					t.Errorf("level %d woken with %d", level, v)
				}
			}
			finished++
			if level > 0 {
				parents[level-1].Wake(1, level)
			}
		})
	}
	spawn(0)
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if finished != depth {
		t.Fatalf("finished %d bodies, want %d", finished, depth)
	}
	if k.Live() != 0 {
		t.Fatalf("Live = %d after Run", k.Live())
	}
}

// TestBodyPanicPropagates: a panic in a process body must surface as a
// panic from Kernel.Run with the body's original panic value (iter.Pull
// re-raises it through the resume call), not die on a detached goroutine.
func TestBodyPanicPropagates(t *testing.T) {
	k := NewKernel()
	k.Spawn("ok", func(p *Proc) { p.Sleep(5) })
	k.Spawn("bomb", func(p *Proc) {
		p.Sleep(1)
		panic("bomb away")
	})
	defer func() {
		r := recover()
		if r != "bomb away" {
			t.Fatalf("Run panicked with %v, want the body's original value", r)
		}
	}()
	_ = k.Run()
	t.Fatal("Run returned instead of panicking")
}

// TestNestedSpawnPanicPropagates: same contract for a body spawned from
// inside another body.
func TestNestedSpawnPanicPropagates(t *testing.T) {
	k := NewKernel()
	k.Spawn("outer", func(p *Proc) {
		p.Kernel().Spawn("inner", func(q *Proc) {
			q.Sleep(3)
			panic(42)
		})
		p.Sleep(10)
	})
	defer func() {
		if r := recover(); r != 42 {
			t.Fatalf("recovered %v, want 42", r)
		}
	}()
	_ = k.Run()
	t.Fatal("Run returned instead of panicking")
}

// TestResetAfterBodyPanic: a kernel whose run panicked must still be
// resettable and replay a fresh workload correctly on recycled structures.
func TestResetAfterBodyPanic(t *testing.T) {
	k := NewKernel()
	k.Spawn("bomb", func(p *Proc) {
		p.Sleep(1)
		panic("boom")
	})
	func() {
		defer func() { recover() }()
		_ = k.Run()
	}()
	k.Reset(WithSeed(7))
	a := stampWorkload(t, k)
	b := stampWorkload(t, NewKernel(WithSeed(7)))
	for i := range b {
		if a[i] != b[i] {
			t.Fatalf("post-panic reset replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestResetMidWaitUnwindsBlockedBodies: Reset on a kernel whose processes
// are blocked in Park and Sleep must unwind every body (running its
// defers), recycle the structures, and leave the kernel replaying exactly
// like a fresh one.
func TestResetMidWaitUnwindsBlockedBodies(t *testing.T) {
	k := NewKernel()
	unwound := 0
	k.Spawn("parked", func(p *Proc) {
		defer func() { unwound++ }()
		p.Park()
		t.Error("parked body resumed after Reset")
	})
	k.Spawn("sleeping", func(p *Proc) {
		defer func() { unwound++ }()
		p.Sleep(1)
		p.Kernel().Stop() // abandon the run mid-wait of the other two
		p.Sleep(1000)
		t.Error("sleeping body resumed after Reset")
	})
	k.Spawn("late", func(p *Proc) {
		defer func() { unwound++ }()
		p.Sleep(500)
	})
	if err := k.Run(); !errors.Is(err, ErrStopped) {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	k.Reset(WithSeed(7))
	if unwound != 3 {
		t.Fatalf("unwound %d bodies, want 3", unwound)
	}
	if len(k.free) != 3 {
		t.Fatalf("recycled %d procs, want 3", len(k.free))
	}
	a := stampWorkload(t, k)
	b := stampWorkload(t, NewKernel(WithSeed(7)))
	for i := range b {
		if a[i] != b[i] {
			t.Fatalf("post-abandon reset replay diverged at %d", i)
		}
	}
}

// TestResetMidWaitDiscardsDeferredScheduling: a body unwound by Reset may
// schedule events or record trace entries from its deferred functions;
// none of that may leak into the reset kernel.
func TestResetMidWaitDeferredSchedulingDiscarded(t *testing.T) {
	k := NewKernel()
	stale := false
	k.Spawn("stuck", func(p *Proc) {
		defer func() {
			// Deferred cleanup that talks to the kernel on the way down.
			p.Kernel().After(1, func() { stale = true })
		}()
		p.Park()
	})
	var dl *DeadlockError
	if err := k.Run(); !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	k.Reset()
	k.Spawn("fresh", func(p *Proc) { p.Sleep(10) })
	if err := k.Run(); err != nil {
		t.Fatalf("post-reset Run: %v", err)
	}
	if stale {
		t.Fatal("event scheduled during unwind survived Reset")
	}
}

// TestResetMidWaitDeepNest: Reset with a deep spawn-in-spawn chain all
// blocked mid-wait — the unwind must reclaim every level.
func TestResetMidWaitDeepNest(t *testing.T) {
	const depth = 64
	k := NewKernel()
	unwound := 0
	var spawn func(level int)
	spawn = func(level int) {
		k.Spawn("nest", func(p *Proc) {
			defer func() { unwound++ }()
			if level+1 < depth {
				spawn(level + 1)
			}
			p.Park() // nobody ever wakes anyone: full-chain deadlock
		})
	}
	spawn(0)
	var dl *DeadlockError
	if err := k.Run(); !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	if len(dl.Procs) != depth {
		t.Fatalf("deadlock reports %d blocked procs, want %d", len(dl.Procs), depth)
	}
	k.Reset()
	if unwound != depth {
		t.Fatalf("unwound %d bodies, want %d", unwound, depth)
	}
	if len(k.free) != depth {
		t.Fatalf("recycled %d procs, want %d", len(k.free), depth)
	}
	// The recycled structures must drive a clean follow-up run.
	done := 0
	for i := 0; i < depth; i++ {
		k.Spawn("again", func(p *Proc) {
			p.Sleep(Duration(1 + i%7))
			done++
		})
	}
	if err := k.Run(); err != nil {
		t.Fatalf("post-reset Run: %v", err)
	}
	if done != depth {
		t.Fatalf("post-reset run finished %d bodies, want %d", done, depth)
	}
}

// TestResetDoesNotLeakTraceEntries: an unwound body's deferred functions
// may call Record on the way down; those entries must not be appended to
// the trace the previous run's caller already collected.
func TestResetDoesNotLeakTraceEntries(t *testing.T) {
	tr := NewTrace(0)
	k := NewKernel(WithTrace(tr))
	k.Spawn("stuck", func(p *Proc) {
		defer k.Record(p, SiteExit, "", 0, 0)
		p.Park()
	})
	var dl *DeadlockError
	if err := k.Run(); !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	before := tr.Len()
	k.Reset()
	if tr.Len() != before {
		t.Fatalf("Reset grew the detached trace from %d to %d entries", before, tr.Len())
	}
}

// TestDroppedKernelsLeaveNoGoroutines: one-shot kernels (never Reset) must
// not leave coroutine goroutines behind after a clean run — an idle-parked
// goroutine's stack is a GC root that would pin every dropped machine
// forever. Recycling kernels opt in via Reset and are torn down with
// Release.
func TestDroppedKernelsLeaveNoGoroutines(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		k := NewKernel()
		SpawnBenchLoad(k, 3, 30)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	// A recycling kernel, torn down explicitly.
	k := NewKernel()
	SpawnBenchLoad(k, 3, 30)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Reset()
	SpawnBenchLoad(k, 3, 30)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Release()
	// Exiting coroutine goroutines die on their own schedule; give them a
	// few cycles before counting.
	for i := 0; i < 100 && runtime.NumGoroutine() > base; i++ {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > base+1 {
		t.Fatalf("goroutines grew from %d to %d across dropped kernels", base, n)
	}
}
