// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation. Each benchmark regenerates its artifact and reports
// the headline quantities as custom metrics (kb/s, BER%), so
// `go test -bench=. -benchmem` prints the same rows the paper reports.
// Full-fidelity renderings come from `go run ./cmd/mesbench -all`.
package mes_test

import (
	"fmt"
	"runtime"
	"testing"

	"mes/internal/codec"
	"mes/internal/core"
	"mes/internal/experiments"
	"mes/internal/sim"
	"mes/internal/timing"
)

// benchOpt keeps benchmark iterations affordable; absolute numbers come
// from full-fidelity runs (mesbench without -quick).
var benchOpt = experiments.Options{Bits: 4000, Seed: 1}

// benchScenarioTable drives one of Tables IV/V/VI, a sub-benchmark per
// mechanism, reporting TR and BER.
func benchScenarioTable(b *testing.B, scn core.Scenario) {
	payload := codec.Random(sim.NewRNG(1), benchOpt.Bits)
	for _, m := range core.PaperMechanisms() {
		if core.Feasible(m, scn) != nil {
			continue
		}
		b.Run(m.String(), func(b *testing.B) {
			var tr, ber float64
			for i := 0; i < b.N; i++ {
				res, err := core.Run(core.Config{
					Mechanism: m,
					Scenario:  scn,
					Payload:   payload,
					Seed:      uint64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				tr, ber = res.TRKbps, res.BER*100
			}
			b.ReportMetric(tr, "kb/s")
			b.ReportMetric(ber, "BER%")
			b.ReportMetric(0, "ns/op") // the domain metrics are the result
		})
	}
}

// BenchmarkTable4Local regenerates Table IV (local scenario, 6 rows).
func BenchmarkTable4Local(b *testing.B) { benchScenarioTable(b, core.Local()) }

// BenchmarkTable5Sandbox regenerates Table V (cross-sandbox, 6 rows).
func BenchmarkTable5Sandbox(b *testing.B) { benchScenarioTable(b, core.CrossSandbox()) }

// BenchmarkTable6CrossVM regenerates Table VI (cross-VM, 2 feasible rows).
func BenchmarkTable6CrossVM(b *testing.B) { benchScenarioTable(b, core.CrossVM()) }

// BenchmarkFig8PoC regenerates the proof-of-concept traces.
func BenchmarkFig8PoC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Distinguishable() {
			b.Fatal("PoC levels not distinguishable")
		}
	}
}

// BenchmarkFig9Event regenerates the Fig. 9 sweep and reports the
// operating point's numbers.
func BenchmarkFig9Event(b *testing.B) {
	opt := benchOpt
	opt.Bits = 2000
	var best experiments.Fig9Point
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig9(opt)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.TW0us == 15 && p.TIus == 70 {
				best = p
			}
		}
	}
	b.ReportMetric(best.TRKbps, "kb/s@15,70")
	b.ReportMetric(best.BERPct, "BER%@15,70")
}

// BenchmarkFig10Flock regenerates the Fig. 10 sweep and reports the
// recommended operating point (tt1=160µs).
func BenchmarkFig10Flock(b *testing.B) {
	opt := benchOpt
	opt.Bits = 2000
	var plateau experiments.Fig10Point
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig10(opt)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.TT1us == 170 {
				plateau = p
			}
		}
	}
	b.ReportMetric(plateau.TRKbps, "kb/s@170")
	b.ReportMetric(plateau.BERPct, "BER%@170")
}

// BenchmarkFig11MultiSymbol regenerates the 2-bit symbol trace.
func BenchmarkFig11MultiSymbol(b *testing.B) {
	var ser float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if res.LevelsObserved() != 4 {
			b.Fatalf("levels = %d", res.LevelsObserved())
		}
		ser = res.SERPct
	}
	b.ReportMetric(ser, "SER%")
}

// BenchmarkTable23Semaphore regenerates the Table II/III ledgers and the
// deadlock demonstration.
func BenchmarkTable23Semaphore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.SemTables(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if !res.DESStallConfirmed {
			b.Fatal("naive semaphore run did not stall")
		}
	}
}

// BenchmarkMultiBit regenerates the §VI symbol-width study.
func BenchmarkMultiBit(b *testing.B) {
	var tr2 float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.MultiBit(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		tr2 = rows[1].TRKbps
	}
	b.ReportMetric(tr2, "kb/s@2bit")
}

// BenchmarkAggregate regenerates the §V.C.1 multi-pair scaling study.
func BenchmarkAggregate(b *testing.B) {
	opt := benchOpt
	opt.Quick = true
	var agg float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Aggregate(opt)
		if err != nil {
			b.Fatal(err)
		}
		agg = rows[len(rows)-1].AggregateKbps
	}
	b.ReportMetric(agg/1000, "Mb/s@3416pairs")
}

// BenchmarkAblationFairness regenerates the §V.B fair-vs-unfair result.
func BenchmarkAblationFairness(b *testing.B) {
	opt := benchOpt
	opt.Bits = 2000
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fairness(opt)
		if err != nil {
			b.Fatal(err)
		}
		if !res.UnfairDead {
			b.Fatal("unfair competition did not kill the channel")
		}
	}
}

// BenchmarkAblationInterSync regenerates the §V.B inter-bit sync result.
func BenchmarkAblationInterSync(b *testing.B) {
	opt := benchOpt
	opt.Bits = 2000
	var degraded float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.InterSync(opt)
		if err != nil {
			b.Fatal(err)
		}
		degraded = res.WithoutBERPct
	}
	b.ReportMetric(degraded, "openloopBER%")
}

// BenchmarkAblationInterference regenerates the closed-vs-open resource
// comparison.
func BenchmarkAblationInterference(b *testing.B) {
	opt := benchOpt
	opt.Quick = true
	var pcBER float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Interference(opt)
		if err != nil {
			b.Fatal(err)
		}
		pcBER = rows[len(rows)-1].PageCacheBER
	}
	b.ReportMetric(pcBER, "pagecacheBER%@16procs")
}

// BenchmarkBaselines regenerates the §VII related-work channels.
func BenchmarkBaselines(b *testing.B) {
	opt := benchOpt
	opt.Quick = true
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Baselines(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepParallel measures the batch runner on the Fig. 9 sweep (42
// independent transmissions): one sub-benchmark per worker-pool size, so
// the ns/op ratio between workers=1 and workers=GOMAXPROCS is the
// wall-clock speedup (target ≥3× on a 4-core runner). Every pool size
// produces bit-identical sweep results; the sub-benchmarks verify that
// against the sequential rendering as they go.
func BenchmarkSweepParallel(b *testing.B) {
	opt := experiments.Options{Bits: 2000, Seed: 1, Workers: 1}
	pts, err := experiments.Fig9(opt)
	if err != nil {
		b.Fatal(err)
	}
	sequential := experiments.RenderFig9(pts)

	counts := []int{1, 2, 4}
	if max := runtime.GOMAXPROCS(0); max > counts[len(counts)-1] {
		counts = append(counts, max)
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			opt := experiments.Options{Bits: 2000, Seed: 1, Workers: w}
			for i := 0; i < b.N; i++ {
				pts, err := experiments.Fig9(opt)
				if err != nil {
					b.Fatal(err)
				}
				if out := experiments.RenderFig9(pts); out != sequential {
					b.Fatal("parallel sweep diverged from the sequential rendering")
				}
			}
		})
	}
}

// BenchmarkSimulator measures raw simulation throughput: simulated channel
// bits per wall-clock second (capacity planning for large sweeps).
func BenchmarkSimulator(b *testing.B) {
	payload := codec.Random(sim.NewRNG(2), 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(core.Config{
			Mechanism: core.Event,
			Scenario:  core.Local(),
			Payload:   payload,
			Seed:      uint64(i + 1),
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(payload))*float64(b.N)/b.Elapsed().Seconds(), "simbits/s")
}

// BenchmarkTransmission measures one complete Event-channel transmission —
// the unit of work every sweep cell amortizes. ns/op and allocs/op here are
// its per-trial costs; TestTransmissionAllocBudget gates the allocations.
func BenchmarkTransmission(b *testing.B) {
	cfg := core.BenchConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfileHazard measures the noise model's draw cost.
func BenchmarkProfileHazard(b *testing.B) {
	prof := timing.ProfileFor(timing.Windows, timing.Local)
	r := sim.NewRNG(1)
	for i := 0; i < b.N; i++ {
		prof.Hazard(r, 100*sim.Microsecond)
	}
}
