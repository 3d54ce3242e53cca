package detect

import (
	"testing"

	"mes/internal/sim"
)

// BenchmarkDetectAnalyze measures the trace-scan cost per entry — the
// defender-side analog of the kernel's events/s number, tracked in
// BENCH_PR*.json. Entries are grouped by their Object, so the scan pays
// no per-entry parsing or fmt rendering.
func BenchmarkDetectAnalyze(b *testing.B) {
	const n = 8192
	entries := BenchTrace(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if scores := Analyze(entries); len(scores) == 0 {
			b.Fatal("no resources scored")
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "entries/s")
}

// BenchmarkAnalyzerScan measures the pooled-scratch scan — the form the
// bench harness tracks as detect_allocs_per_scan.
func BenchmarkAnalyzerScan(b *testing.B) {
	const n = 8192
	entries := BenchTrace(n)
	a := NewAnalyzer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if scores := a.Analyze(entries); len(scores) == 0 {
			b.Fatal("no resources scored")
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "entries/s")
}

// TestAnalyzerAllocBudget mirrors TestTransmissionAllocBudget for the
// defender side: a warmed Analyzer must scan a standard trace with zero
// heap allocations — the grouping map, timestamp series, interval and
// cluster buffers and the score slice are all reused scratch.
func TestAnalyzerAllocBudget(t *testing.T) {
	entries := BenchTrace(8192)
	a := NewAnalyzer()
	run := func() {
		if scores := a.Analyze(entries); len(scores) == 0 {
			t.Fatal("no resources scored")
		}
	}
	run() // warm the scratch: maps sized, buffers grown, names interned
	if allocs := testing.AllocsPerRun(10, run); allocs > 0 {
		t.Errorf("analyzer scan allocations = %.1f per run, want 0 steady-state", allocs)
	}
}

// TestAnalyzerMatchesOneShot pins the pooling refactor's contract: a
// reused Analyzer must produce scores identical to the one-shot Analyze,
// scan after scan, including after scanning a different trace.
func TestAnalyzerMatchesOneShot(t *testing.T) {
	big, small := BenchTrace(4096), BenchTrace(512)
	a := NewAnalyzer()
	for _, entries := range [][]sim.Entry{big, small, big} {
		want := Analyze(entries)
		got := a.Analyze(entries)
		if len(got) != len(want) {
			t.Fatalf("pooled scan found %d resources, one-shot %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("score %d diverged:\npooled  %v\noneshot %v", i, got[i], want[i])
			}
		}
	}
}

// TestAnalyzeKeysMatchRenderedDetails pins the keying contract for
// pre-rendered entries: resources parsed from the detail text group and
// render by the resource each names, including the kill→"target=" form and
// flock lock/unlock folding.
func TestAnalyzeKeysMatchRenderedDetails(t *testing.T) {
	var entries []sim.Entry
	tm := sim.Time(0)
	for i := 0; i < 32; i++ {
		tm = tm.Add(50 * sim.Microsecond)
		entries = append(entries,
			sim.MakeEntry(tm, 1, "t", "flock", "EX /share/a.txt"),
			sim.MakeEntry(tm.Add(5), 1, "t", "flock", "UN /share/a.txt"),
			sim.MakeEntry(tm.Add(10), 1, "t", "kill", "sig=9 target=spy"),
			sim.MakeEntry(tm.Add(15), 1, "t", "setevent", "mes_ev"),
		)
	}
	got := map[string]int{}
	for _, s := range Analyze(entries) {
		got[s.Resource] = s.Events
	}
	want := map[string]int{
		"flock:/share/a.txt": 64,
		"kill:target=spy":    32,
		"setevent:mes_ev":    32,
	}
	for res, n := range want {
		if got[res] != n {
			t.Errorf("resource %q: %d events, want %d (keys: %v)", res, got[res], n, got)
		}
	}
	if len(got) != len(want) {
		t.Errorf("resources = %v, want exactly %d groups", got, len(want))
	}
}

// TestAnalyzeKeysNewMechanismEvents pins the keying contract for the
// extension mechanisms' trace events: futex lock/unlock pairs fold by
// object name (like flock's EX/UN), condsignal keys by condvar name, and
// write/fsync key by path without their count prefixes — for both
// kernel-recorded (typed Record) and pre-rendered MakeEntry entries.
func TestAnalyzeKeysNewMechanismEvents(t *testing.T) {
	tr := sim.NewTrace(0)
	k := sim.NewKernel(sim.WithTrace(tr))
	k.Spawn("pair", func(p *sim.Proc) {
		for i := 0; i < 16; i++ {
			p.Sleep(40 * sim.Microsecond)
			k.Record(p, sim.SiteFutexEX, "mes_fu_1", 0, 0)
			k.Record(p, sim.SiteFutexUN, "mes_fu_1", 0, 0)
			k.Record(p, sim.SiteCondSignal, "mes_cv_1", 0, 0)
			k.Record(p, sim.SiteWrite, "/share/t.dat", 12, 0)
			k.Record(p, sim.SiteFsync, "/share/s.dat", 12, 0)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	entries := append([]sim.Entry(nil), tr.Entries()...)
	// The same activity pre-rendered (external tooling provenance).
	tm := k.Now()
	for i := 0; i < 16; i++ {
		tm = tm.Add(40 * sim.Microsecond)
		entries = append(entries,
			sim.MakeEntry(tm, 1, "pair", "futex", "EX mes_fu_1"),
			sim.MakeEntry(tm.Add(3), 1, "pair", "futex", "UN mes_fu_1"),
			sim.MakeEntry(tm.Add(6), 1, "pair", "condsignal", "mes_cv_1"),
			sim.MakeEntry(tm.Add(9), 1, "pair", "write", "12 /share/t.dat"),
			sim.MakeEntry(tm.Add(12), 1, "pair", "fsync", "flushed=12 /share/s.dat"),
		)
	}
	got := map[string]int{}
	for _, s := range Analyze(entries) {
		got[s.Resource] = s.Events
	}
	want := map[string]int{
		"futex:mes_fu_1":      64, // EX+UN × both provenances
		"condsignal:mes_cv_1": 32,
		"write:/share/t.dat":  32,
		"fsync:/share/s.dat":  32,
	}
	for res, n := range want {
		if got[res] != n {
			t.Errorf("resource %q: %d events, want %d (keys: %v)", res, got[res], n, got)
		}
	}
	if len(got) != len(want) {
		t.Errorf("resources = %v, want exactly %d groups", got, len(want))
	}
}

// TestAnalyzeKillKeyingAcrossProvenance: kernel-recorded kill entries
// (bare target Object) and pre-rendered MakeEntry kill entries (Object
// parsed from "target=<name>") must fold into one resource group.
func TestAnalyzeKillKeyingAcrossProvenance(t *testing.T) {
	tr := sim.NewTrace(0)
	k := sim.NewKernel(sim.WithTrace(tr))
	k.Spawn("trojan", func(p *sim.Proc) {
		for i := 0; i < 16; i++ {
			p.Sleep(50 * sim.Microsecond)
			k.Record(p, sim.SiteKill, "spy", 9, 0)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	entries := append([]sim.Entry(nil), tr.Entries()...)
	tm := k.Now()
	for i := 0; i < 16; i++ {
		tm = tm.Add(50 * sim.Microsecond)
		entries = append(entries, sim.MakeEntry(tm, 1, "t", "kill", "sig=9 target=spy"))
	}
	var killScores []Score
	for _, s := range Analyze(entries) {
		if s.Resource == "kill:target=spy" {
			killScores = append(killScores, s)
		}
	}
	if len(killScores) != 1 || killScores[0].Events != 32 {
		t.Fatalf("kill scores = %+v, want one group of 32 events", killScores)
	}
}
