package sim

import (
	"strings"
	"testing"
)

func TestAdvanceExact(t *testing.T) {
	k := NewKernel(WithHooks(fixedLatency{latency: 99 * Microsecond}))
	var at Time
	k.Spawn("p", func(p *Proc) {
		p.Advance(7 * Microsecond) // raw: hooks must not apply
		at = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != Time(7*Microsecond) {
		t.Fatalf("Advance landed at %v, want exactly 7µs", at)
	}
}

func TestAdvanceZeroAndNegative(t *testing.T) {
	k := NewKernel()
	var at Time
	k.Spawn("p", func(p *Proc) {
		p.Advance(0)
		p.Advance(-5)
		at = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 0 {
		t.Fatalf("non-positive Advance moved time to %v", at)
	}
}

func TestPublicRecord(t *testing.T) {
	tr := NewTrace(0)
	k := NewKernel(WithTrace(tr))
	k.Spawn("p", func(p *Proc) {
		k.Record(p, SiteFlockEX, "/f", 0, 0)
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := tr.Filter("flock")
	if len(got) != 1 || got[0].Object != "/f" || got[0].Detail() != "EX /f" || got[0].Proc() != "p" {
		t.Fatalf("trace = %v", got)
	}
}

func TestRecordWithoutTraceIsNoop(t *testing.T) {
	k := NewKernel()
	k.Spawn("p", func(p *Proc) {
		k.Record(p, SiteFlockEX, "/f", 0, 0) // must not panic
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if k.Trace() != nil {
		t.Fatal("untraced kernel grew a trace")
	}
}

func TestEntryString(t *testing.T) {
	e := MakeEntry(Time(5*Microsecond), 2, "spy", "sleep", "10µs")
	s := e.String()
	if !strings.Contains(s, "spy") || !strings.Contains(s, "sleep") {
		t.Fatalf("Entry.String = %q", s)
	}
	if e.Detail() != "10µs" {
		t.Fatalf("Detail = %q, want 10µs", e.Detail())
	}
	e = MakeEntry(Time(5*Microsecond), 2, "spy", "sleep", "")
	if s := e.String(); strings.Contains(s, ":") {
		t.Fatalf("detail-less entry should omit colon: %q", s)
	}
}
