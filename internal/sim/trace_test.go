package sim

import (
	"fmt"
	"testing"
	"unsafe"
)

// TestSiteDetailsRenderLikeFormats pins every recording site's event
// name and detail text against the format string and arguments that
// site's call rendered with eagerly.
func TestSiteDetailsRenderLikeFormats(t *testing.T) {
	cases := []struct {
		site  Site
		obj   string
		a, b  int64
		event string
		want  string
	}{
		{SitePark, "", 0, 0, "park", ""},
		{SiteExit, "", 0, 0, "exit", ""},
		{SiteCrash, "", 0, 0, "crash", ""},
		{SiteSleep, "", 10_000, 12_345, "sleep", fmt.Sprintf("%v (effective %v)", 10*Microsecond, Duration(12_345))},
		{SiteFlockUN, "/share/a b.txt", 0, 0, "flock", "UN /share/a b.txt"},
		{SiteFlockEX, "/f", 0, 0, "flock", "EX /f"},
		{SiteFlockSH, "/f", 0, 0, "flock", "SH /f"},
		{SiteWrite, "/t.dat", 12, 0, "write", fmt.Sprintf("%d %s", 12, "/t.dat")},
		{SiteFsync, "/s.dat", 3, 0, "fsync", fmt.Sprintf("flushed=%d %s", 3, "/s.dat")},
		{SiteKill, "spy", 10, 0, "kill", fmt.Sprintf("sig=%d target=%s", 10, "spy")},
		{SiteFutexEX, "fu", 0, 0, "futex", "EX fu"},
		{SiteFutexUN, "fu", 0, 0, "futex", "UN fu"},
		{SiteFutexWake, "fu", 0, 0, "futex", "WAKE fu"},
		{SiteCondSignal, "cv", 0, 0, "condsignal", "cv"},
		{SiteSetEvent, "ev", 0, 0, "setevent", "ev"},
	}
	if len(cases) != int(numSites)-1 {
		t.Fatalf("%d cases for %d recording sites", len(cases), numSites-1)
	}
	tr := NewTrace(0)
	k := NewKernel(WithTrace(tr))
	k.Spawn("p", func(p *Proc) {
		for _, c := range cases {
			k.Record(p, c.site, c.obj, c.a, c.b)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	got := tr.Entries()[:len(cases)]
	for i, c := range cases {
		e := got[i]
		if e.Event() != c.event || e.Detail() != c.want || e.Object != c.obj || e.PID() != 1 || e.Proc() != "p" {
			t.Errorf("site %d: %s(%d) %q %q obj %q, want p(1) %q %q obj %q",
				c.site, e.Proc(), e.PID(), e.Event(), e.Detail(), e.Object, c.event, c.want, c.obj)
		}
	}
}

func TestEntryFitsBudget(t *testing.T) {
	if n := unsafe.Sizeof(Entry{}); n > 48 {
		t.Fatalf("Entry is %d bytes, want at most 48", n)
	}
}

func TestMakeEntryParsesObject(t *testing.T) {
	for detail, want := range map[string]string{
		"EX /share/a.txt":   "/share/a.txt",
		"sig=9 target=spy":  "spy",
		"flushed=12 /s.dat": "/s.dat",
		"mes_ev":            "mes_ev",
		"":                  "",
		"target=spy":        "spy",
		"12 /share/t.dat":   "/share/t.dat",
		"WAKE mes_fu_1":     "mes_fu_1",
	} {
		e := MakeEntry(0, 1, "p", "x", detail)
		if e.Object != want || e.Detail() != detail {
			t.Errorf("MakeEntry(%q): Object %q Detail %q, want %q and the detail verbatim", detail, e.Object, e.Detail(), want)
		}
	}
}

// TestTraceKeepsProcNamesAcrossRuns: one trace attached to two kernel
// runs whose PID 1 names different processes renders each entry with the
// process that recorded it.
func TestTraceKeepsProcNamesAcrossRuns(t *testing.T) {
	tr := NewTrace(0)
	for _, name := range []string{"spy", "trojan"} {
		k := NewKernel(WithTrace(tr))
		k.Spawn(name, func(p *Proc) { k.Record(p, SiteSetEvent, "ev", 0, 0) })
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	ev := tr.Filter("setevent")
	if len(ev) != 2 || ev[0].Proc() != "spy" || ev[1].Proc() != "trojan" {
		t.Fatalf("setevent entries = %v, want one from spy then one from trojan", ev)
	}
}

func TestZeroEntryRenders(t *testing.T) {
	var e Entry
	if e.Event() != "" || e.Detail() != "" || e.PID() != 0 {
		t.Fatalf("zero entry = %q", e.String())
	}
}

// TestTraceGrowthIsLogarithmic: recording grows an unbounded trace's
// storage by doubling, so n entries cost O(log n) allocations, and a
// bounded trace's storage never outgrows its capacity.
func TestTraceGrowthIsLogarithmic(t *testing.T) {
	const n = 100_000
	allocs := testing.AllocsPerRun(3, func() {
		tr := NewTrace(0)
		for i := 0; i < n; i++ {
			tr.record(Time(i), nil, SitePark, "", 0, 0)
		}
	})
	// The trace, its origin index and row, and one allocation per
	// doubling from minTraceGrowth up to n.
	doublings := 1
	for c := minTraceGrowth; c < n; c *= 2 {
		doublings++
	}
	if want := float64(3 + doublings); allocs > want {
		t.Errorf("recording %d entries made %.0f allocations, want ≤ %.0f", n, allocs, want)
	}

	for _, capacity := range []int{1, 63, 64, 100, 1000} {
		tr := NewTrace(capacity)
		for i := 0; i < 2*capacity+10; i++ {
			tr.record(Time(i), nil, SitePark, "", 0, 0)
		}
		if tr.Len() != capacity || tr.Dropped() != capacity+10 {
			t.Errorf("NewTrace(%d): kept %d, dropped %d, want %d and %d", capacity, tr.Len(), tr.Dropped(), capacity, capacity+10)
		}
		if c := cap(tr.Entries()); c > capacity {
			t.Errorf("NewTrace(%d) holds storage for %d entries, want ≤ %d", capacity, c, capacity)
		}
	}
}
