package sim

// SpawnBenchLoad populates k with nprocs processes that together execute at
// least total timed sleeps of small co-prime durations. The durations are
// chosen so that nearly every sleep coexists with pending events from the
// other processes and must go through the event queue and a real handoff —
// the worst case for the scheduler hot path. It is the standard workload
// behind BenchmarkKernelEvents, TestBenchLoadWorkCounts and bench/'s
// sim.event_ns; it returns the exact number of sleeps scheduled.
func SpawnBenchLoad(k *Kernel, nprocs, total int) int {
	durs := [...]Duration{3, 5, 7, 11, 13, 17, 19, 23}
	if nprocs < 1 {
		nprocs = 1
	}
	per := (total + nprocs - 1) / nprocs
	for w := 0; w < nprocs; w++ {
		d := durs[w%len(durs)]
		k.Spawn("load", func(p *Proc) {
			for i := 0; i < per; i++ {
				p.Sleep(d)
			}
		})
	}
	return per * nprocs
}

// SpawnPingPong populates k with two processes that alternate via Yield
// for rounds rounds each, so every round is one full control transfer:
// a schedule, a pop, and a kernel↔process handoff in each direction. It is
// the workload behind BenchmarkContextSwitch and bench/'s sim.switch_ns;
// it returns the total number of yields.
func SpawnPingPong(k *Kernel, rounds int) int {
	for w := 0; w < 2; w++ {
		k.Spawn("pingpong", func(p *Proc) {
			for i := 0; i < rounds; i++ {
				p.Yield()
			}
		})
	}
	return 2 * rounds
}
