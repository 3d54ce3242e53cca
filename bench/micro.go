package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"mes/internal/codec"
	"mes/internal/core"
	"mes/internal/detect"
	"mes/internal/kobj"
	"mes/internal/osmodel"
	"mes/internal/runner"
	"mes/internal/sim"
	"mes/internal/timing"
	"mes/internal/vfs"
)

// microSamples is how many timed samples each microbenchmark takes; its
// value is their median.
const microSamples = 5

// sink keeps the compiler from discarding results the microbenchmarks
// compute only to time them.
var sink sim.Duration

// unitNs times f, which runs n iterations of one unit of work, and
// returns the median cost of an iteration in ns. n is first grown until
// one call lasts about sample.
func unitNs(sample time.Duration, f func(n int) error) (float64, error) {
	timed := func(n int) (time.Duration, error) {
		t0 := time.Now()
		err := f(n)
		return time.Since(t0), err
	}
	n := 1
	for {
		d, err := timed(n)
		if err != nil {
			return 0, err
		}
		if d >= sample/4 {
			n = max(1, int(float64(n)*float64(sample)/float64(d)))
			break
		}
		n *= 4
	}
	xs := make([]float64, microSamples)
	for i := range xs {
		d, err := timed(n)
		if err != nil {
			return 0, err
		}
		xs[i] = float64(d.Nanoseconds()) / float64(n)
	}
	return median(xs), nil
}

// waiter is the stub blocked thread the kernel-object cycles queue.
type waiter struct{ name string }

func (w *waiter) WaiterName() string { return w.name }

// errCycle reports a microbenchmark whose object returned the wrong
// waiters: the layer's output is checked, not only timed.
func errCycle(what string) error { return fmt.Errorf("micro %s: unexpected wake list", what) }

func wokeOnly(ws []kobj.Waiter, w kobj.Waiter) bool { return len(ws) == 1 && ws[0] == w }

// micro runs the per-layer microbenchmarks on inputs recorded from w's
// probe transmission: its payload, its timing profile and the latencies
// it measured. It returns one unit-cost metric per microbenchmark.
func micro(w *workload, seed uint64, sample time.Duration) ([]metric, error) {
	cfg := w.probe(seed)
	probe, err := core.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("probe transmission: %w", err)
	}
	lat := probe.Latencies
	prof := timing.ProfileFor(cfg.Mechanism.OS(), cfg.Scenario.Isolation)
	rng := sim.NewRNG(seed)
	a, b := &waiter{"a"}, &waiter{"b"}

	type bench struct {
		name, unit string
		scale      float64 // divides ns per iteration into the unit
		f          func(n int) error
	}
	benches := []bench{
		{"sim.event_ns", "ns", 1, func(n int) error {
			k := sim.NewKernel()
			sim.SpawnBenchLoad(k, 4, n)
			return k.Run()
		}},
		{"sim.switch_ns", "ns", 1, func(n int) error {
			k := sim.NewKernel()
			sim.SpawnPingPong(k, n/2+1)
			return k.Run()
		}},
		{"sim.resume_ns", "ns", 1, func(n int) error { sim.ResumeRoundTrips(n); return nil }},

		{"timing.cost_ns", "ns", 1, func(n int) error {
			for i := 0; i < n; i++ {
				sink += prof.Cost(rng, timing.Op(i%int(timing.OpPageFlush+1)))
			}
			return nil
		}},
		{"timing.sleep_extra_ns", "ns", 1, func(n int) error {
			for i := 0; i < n; i++ {
				sink += prof.SleepExtra(rng, lat[i%len(lat)])
			}
			return nil
		}},
		{"timing.hazard_ns", "ns", 1, func(n int) error {
			for i := 0; i < n; i++ {
				sink += prof.Hazard(rng, lat[i%len(lat)])
			}
			return nil
		}},

		// Kernel-object cycles: one contended handoff each, with stub
		// waiters in place of simulated processes.
		{"kobj.event_cycle_ns", "ns", 1, func(n int) error {
			e := kobj.NewEvent("e", kobj.AutoReset, false)
			for i := 0; i < n; i++ {
				if e.TryWait(a) {
					return errCycle("event")
				}
				e.Enqueue(a)
				if !wokeOnly(e.Set(), a) {
					return errCycle("event")
				}
			}
			return nil
		}},
		{"kobj.mutex_cycle_ns", "ns", 1, func(n int) error {
			m := kobj.NewMutex("m", nil)
			for i := 0; i < n; i++ {
				if !m.TryWait(a) || m.TryWait(b) {
					return errCycle("mutex")
				}
				m.Enqueue(b)
				if ws, err := m.Release(a); err != nil || !wokeOnly(ws, b) {
					return errCycle("mutex")
				}
				if _, err := m.Release(b); err != nil {
					return err
				}
			}
			return nil
		}},
		{"kobj.semaphore_cycle_ns", "ns", 1, func(n int) error {
			s := kobj.NewSemaphore("s", 1, 1)
			for i := 0; i < n; i++ {
				if !s.TryWait(a) || s.TryWait(b) {
					return errCycle("semaphore")
				}
				s.Enqueue(b)
				if ws, err := s.Release(1); err != nil || !wokeOnly(ws, b) {
					return errCycle("semaphore")
				}
				if _, err := s.Release(1); err != nil {
					return err
				}
			}
			return nil
		}},
		{"kobj.timer_cycle_ns", "ns", 1, func(n int) error {
			t := kobj.NewTimer("t", kobj.AutoReset)
			for i := 0; i < n; i++ {
				gen := t.Arm()
				if t.TryWait(a) {
					return errCycle("timer")
				}
				t.Enqueue(a)
				if !wokeOnly(t.Fire(gen), a) {
					return errCycle("timer")
				}
			}
			return nil
		}},
		{"kobj.futex_cycle_ns", "ns", 1, func(n int) error {
			f := kobj.NewFutex("f")
			for i := 0; i < n; i++ {
				if !f.TryWait(a) || f.TryWait(b) {
					return errCycle("futex")
				}
				f.Enqueue(b)
				if !wokeOnly(f.Unlock(), b) {
					return errCycle("futex")
				}
				f.Unlock()
			}
			return nil
		}},
		{"kobj.cond_cycle_ns", "ns", 1, func(n int) error {
			c := kobj.NewCond("c")
			for i := 0; i < n; i++ {
				c.Enqueue(a)
				if !wokeOnly(c.Signal(), a) {
					return errCycle("cond")
				}
			}
			return nil
		}},
		{"kobj.filelock_cycle_ns", "ns", 1, func(n int) error {
			f := kobj.NewFileObject("f", "/share/f", false)
			for i := 0; i < n; i++ {
				if !f.TryLock(a, true) || f.TryLock(b, true) {
					return errCycle("filelock")
				}
				f.EnqueueLock(b, true)
				if !wokeOnly(f.Unlock(a), b) {
					return errCycle("filelock")
				}
				f.Unlock(b)
			}
			return nil
		}},
		{"kobj.namespace_open_ns", "ns", 1, func(n int) error {
			ns := kobj.NewNamespace("host")
			objs := []kobj.Object{kobj.NewEvent("e", kobj.AutoReset, false), kobj.NewMutex("m", nil),
				kobj.NewSemaphore("s", 1, 1), kobj.NewTimer("t", kobj.AutoReset), kobj.NewFutex("f"),
				kobj.NewCond("c"), kobj.NewFileObject("l", "/share/l", false)}
			for _, o := range objs {
				ns.Insert(o)
			}
			for i := 0; i < n; i++ {
				o := objs[i%len(objs)]
				if _, err := ns.Open(o.Name(), o.Type()); err != nil {
					return err
				}
			}
			return nil
		}},

		{"vfs.flock_cycle_ns", "ns", 1, func(n int) error {
			fs := vfs.NewFS()
			in, err := fs.Create("/share/f", 64, true, true)
			if err != nil {
				return err
			}
			fa, err := fs.Open("/share/f", false)
			if err != nil {
				return err
			}
			fb, err := fs.Open("/share/f", false)
			if err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				if !in.TryFlock(fa, vfs.LockEx) || in.TryFlock(fb, vfs.LockEx) {
					return errCycle("flock")
				}
				in.EnqueueFlock(fb, vfs.LockEx, b)
				if ws := in.Unlock(fa); len(ws) != 1 || ws[0] != b {
					return errCycle("flock")
				}
				in.Unlock(fb)
			}
			return nil
		}},
		{"vfs.open_close_ns", "ns", 1, func(n int) error {
			fs := vfs.NewFS()
			if _, err := fs.Create("/share/f", 64, true, true); err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				f, err := fs.Open("/share/f", false)
				if err != nil {
					return err
				}
				if _, err := fs.Close(f); err != nil {
					return err
				}
			}
			return nil
		}},
		{"vfs.write_fsync_ns", "ns", 1, func(n int) error {
			fs := vfs.NewFS()
			in, err := fs.Create("/share/f", 64, false, false)
			if err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				fs.MarkDirty(in, 12) // the WriteSync channel dirties 12 pages per bit
				if fs.SyncJournal() != 12 {
					return errCycle("fsync")
				}
			}
			return nil
		}},

		{"osmodel.new_system_us", "us", 1e3, func(n int) error {
			for i := 0; i < n; i++ {
				sys := osmodel.NewSystem(osmodel.Config{Profile: prof, Seed: seed})
				sys.Release()
			}
			return nil
		}},
		{"osmodel.reset_us", "us", 1e3, func(n int) error {
			sys := osmodel.NewSystem(osmodel.Config{Profile: prof, Seed: seed})
			defer sys.Release()
			for i := 0; i < n; i++ {
				sys.Reset(osmodel.Config{Profile: prof, Seed: seed + uint64(i)})
			}
			return nil
		}},
		{"osmodel.event_roundtrip_ns", "ns", 1, func(n int) error { return eventRoundTrips(seed, n) }},
		{"osmodel.flock_roundtrip_ns", "ns", 1, func(n int) error { return flockRoundTrips(seed, n) }},

		{"core.new_session_us", "us", 1e3, func(n int) error {
			for i := 0; i < n; i++ {
				s, err := core.NewSession(cfg)
				if err != nil {
					return err
				}
				_, err = s.Run(runner.TrialSeed(seed, i))
				s.Close()
				if err != nil {
					return err
				}
			}
			return nil
		}},
		{"core.decode_us", "us", 1e3, func(n int) error {
			const warmup, syncLen = 1, 8 // core's defaults
			syms, dec := probe.SentSyms, make([]int, 0, len(lat))
			for i := 0; i < n; i++ {
				d, err := core.CalibrateDecoder(probe.Decoder.M(), syms[warmup:warmup+syncLen], lat[warmup:warmup+syncLen])
				if err != nil {
					return err
				}
				dec = d.AppendDecodeAll(dec[:0], lat[warmup+syncLen:])
			}
			if !slices.Equal(dec, probe.DecodedSyms) {
				return fmt.Errorf("micro decode: replayed decode differs from the probe's")
			}
			return nil
		}},

		{"codec.pack_ns_per_bit", "ns", float64(len(cfg.Payload)), func(n int) error {
			var syms []int
			for i := 0; i < n; i++ {
				var err error
				if syms, err = codec.AppendPack(syms[:0], cfg.Payload, 1); err != nil {
					return err
				}
			}
			return nil
		}},
		{"codec.unpack_ns_per_bit", "ns", float64(len(cfg.Payload)), func(n int) error {
			syms, err := codec.Pack(cfg.Payload, 1)
			if err != nil {
				return err
			}
			var bits codec.Bits
			for i := 0; i < n; i++ {
				if bits, err = codec.AppendUnpack(bits[:0], syms, 1); err != nil {
					return err
				}
			}
			if !bits.Equal(cfg.Payload) {
				return fmt.Errorf("micro codec: unpack(pack(payload)) differs from the payload")
			}
			return nil
		}},

		{"runner.map_cell_us", "us", 1e3, func(n int) error {
			_, err := runner.MapWith(context.Background(), make([]int, n),
				func() int { return 0 }, nil,
				func(_ context.Context, _ int, c int) (int, error) { return c, nil },
				runner.Workers(runtime.NumCPU()))
			return err
		}},
		{"runner.cache_hit_ns", "ns", 1, func(n int) error {
			c := runner.NewCache()
			compute := func() (int, error) { return 0, nil }
			for i := 0; i < n; i++ {
				if _, err := runner.Do(c, "cell", compute); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	var out []metric
	for _, bm := range benches {
		ns, err := unitNs(sample, bm.f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", bm.name, err)
		}
		out = append(out, once(bm.name, bm.unit, ns/bm.scale))
	}

	// The detector's scan rate on the probe's own kernel trace.
	cfg.Trace = sim.NewTrace(0)
	if _, err := core.Run(cfg); err != nil {
		return nil, fmt.Errorf("traced probe transmission: %w", err)
	}
	entries := cfg.Trace.Entries()
	an := detect.NewAnalyzer()
	ns, err := unitNs(sample, func(n int) error {
		for i := 0; i < n; i++ {
			an.Analyze(entries)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return append(out, once("detect.entries_per_s", "entry/s", float64(len(entries))/ns*1e9)), nil
}

// eventRoundTrips runs n Event ping-pong round trips between two
// processes on one simulated Windows machine.
func eventRoundTrips(seed uint64, n int) error {
	sys := osmodel.NewSystem(osmodel.Config{Profile: timing.ProfileFor(timing.Windows, timing.Local), Seed: seed})
	defer sys.Release()
	var perr error
	fail := func(err error) {
		if err != nil && perr == nil {
			perr = err
		}
	}
	side := func(first, second string, lead bool) func(*osmodel.Proc) {
		return func(p *osmodel.Proc) {
			give, err := p.CreateEvent(first, kobj.AutoReset, false)
			fail(err)
			take, err := p.CreateEvent(second, kobj.AutoReset, false)
			fail(err)
			if perr != nil {
				return
			}
			for i := 0; i < n; i++ {
				if lead {
					fail(p.SetEvent(give))
				}
				_, err := p.WaitForSingleObject(take, osmodel.Infinite)
				fail(err)
				if !lead {
					fail(p.SetEvent(give))
				}
			}
		}
	}
	sys.Spawn("ping", sys.Host(), side("ping", "pong", true))
	sys.Spawn("pong", sys.Host(), side("pong", "ping", false))
	if err := sys.Run(); err != nil {
		return err
	}
	return perr
}

// flockRoundTrips has two processes on one simulated Linux machine take
// and drop an exclusive flock on a shared file, n times between them.
func flockRoundTrips(seed uint64, n int) error {
	sys := osmodel.NewSystem(osmodel.Config{Profile: timing.ProfileFor(timing.Linux, timing.Local), Seed: seed})
	defer sys.Release()
	in, err := sys.CreateSharedFile("/share/f", 64, true, true)
	if err != nil {
		return err
	}
	in.SetFair(true)
	var perr error
	body := func(p *osmodel.Proc) {
		fd, err := p.OpenFile("/share/f", false)
		if err != nil {
			perr = err
			return
		}
		for i := 0; i < n/2; i++ {
			if err := p.Flock(fd, vfs.LockEx, false); err != nil {
				perr = err
				return
			}
			if err := p.Flock(fd, vfs.LockNone, false); err != nil {
				perr = err
				return
			}
		}
	}
	sys.Spawn("a", sys.Host(), body)
	sys.Spawn("b", sys.Host(), body)
	if err := sys.Run(); err != nil {
		return err
	}
	return perr
}
