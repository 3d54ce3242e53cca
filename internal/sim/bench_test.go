package sim

import "testing"

// BenchmarkKernelEvents measures raw scheduler throughput: four processes
// interleave sleeps of co-prime durations, so each simulated event pays the
// full hot path — queue insert, pop, and the kernel↔process handoff. ns/op
// and allocs/op are per simulated event. TestBenchLoadWorkCounts pins the
// same workload's work exactly; its wall clock is bench/'s sim.event_ns.
func BenchmarkKernelEvents(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	n := SpawnBenchLoad(k, 4, b.N)
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkContextSwitch isolates the kernel↔process handoff: two processes
// ping-pong via Yield, so every op is one full control round trip — a
// schedule, a pop, and a pair of coroutine switches (body→kernel,
// kernel→body). Under the old goroutine-per-proc handoff each direction was
// a runtime park/unpark through a channel (~µs per op); the iter.Pull
// coroutine transfer is a direct runtime.coroswitch (~100ns range).
func BenchmarkContextSwitch(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	SpawnPingPong(k, b.N/2+1)
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkResumeRoundTrip measures the resume layer alone: one
// transferIn/transferOut round trip on a standalone coroutine handle,
// with no kernel, event queue or timing model around it. The delta
// between BenchmarkContextSwitch and this row is the scheduler's own
// per-switch overhead (bench/'s sim.resume_ns against sim.switch_ns).
func BenchmarkResumeRoundTrip(b *testing.B) {
	b.ReportAllocs()
	ResumeRoundTrips(b.N)
}

// TestBenchLoadWorkCounts pins the raw event core's work on the standard
// SpawnBenchLoad workload exactly: coroutine switches and events pushed
// on the heap. Both are deterministic, so the gate is equality: a change
// that adds a dispatch or an event to the scheduler's hot path fails it,
// where a wall-clock floor would only drift. An intended engine change
// updates the literal; the failure message prints the measured one.
func TestBenchLoadWorkCounts(t *testing.T) {
	const wantSwitches, wantEvents = 4790, 8262
	k := NewKernel()
	SpawnBenchLoad(k, 4, 10000)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if sw, ev := k.Switches(), k.Scheduled(); sw != wantSwitches || ev != wantEvents {
		t.Errorf("bench load work counts changed\n got const wantSwitches, wantEvents = %d, %d\nwant const wantSwitches, wantEvents = %d, %d",
			sw, ev, wantSwitches, wantEvents)
	}
}
