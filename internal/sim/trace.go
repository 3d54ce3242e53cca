package sim

import (
	"fmt"
	"strings"
)

// Site identifies the code path that recorded a trace entry. Each site
// fixes the entry's event name, its detail format and which of the
// entry's fields the format reads (see the sites table), so recording
// stores plain values and formatting happens only when the entry is read.
type Site uint8

// Recording sites. The kernel records park, exit, crash and sleep; the OS
// model records the syscall-level sites a defender would monitor.
const (
	siteForeign Site = iota // MakeEntry: event and detail carried as text
	SitePark
	SiteExit
	SiteCrash
	SiteSleep
	SiteFlockUN
	SiteFlockEX
	SiteFlockSH
	SiteWrite
	SiteFsync
	SiteKill
	SiteFutexEX
	SiteFutexUN
	SiteFutexWake
	SiteCondSignal
	SiteSetEvent
	numSites
)

// argLayout says which entry fields a site's detail format consumes.
type argLayout uint8

const (
	argsNone   argLayout = iota // no detail text
	argsObj                     // format(Object)
	argsIntObj                  // format(a, Object)
	argsDurDur                  // format(Duration(a), Duration(b))
)

var sites = [numSites]struct {
	event  string
	format string
	args   argLayout
}{
	SitePark:       {"park", "", argsNone},
	SiteExit:       {"exit", "", argsNone},
	SiteCrash:      {"crash", "", argsNone},
	SiteSleep:      {"sleep", "%v (effective %v)", argsDurDur},
	SiteFlockUN:    {"flock", "UN %s", argsObj},
	SiteFlockEX:    {"flock", "EX %s", argsObj},
	SiteFlockSH:    {"flock", "SH %s", argsObj},
	SiteWrite:      {"write", "%d %s", argsIntObj},
	SiteFsync:      {"fsync", "flushed=%d %s", argsIntObj},
	SiteKill:       {"kill", "sig=%d target=%s", argsIntObj},
	SiteFutexEX:    {"futex", "EX %s", argsObj},
	SiteFutexUN:    {"futex", "UN %s", argsObj},
	SiteFutexWake:  {"futex", "WAKE %s", argsObj},
	SiteCondSignal: {"condsignal", "%s", argsObj},
	SiteSetEvent:   {"setevent", "%s", argsObj},
}

// origin is what an entry shares with every other entry one process
// records at one site: the process and the site. A trace keeps one per
// (PID, site) pair, so entries point at it instead of copying names.
// MakeEntry entries get their own, carrying the event and detail text.
type origin struct {
	pid    int
	proc   string
	site   Site
	event  string
	detail string // siteForeign only
}

var zeroOrigin origin

// Entry is one recorded trace line: a flat 48-byte value that recording
// fills without allocating. Object is the resource the call touched — an
// object name, file path or signal target — and is empty for
// park/sleep/exit/crash. The detail text is rendered from the recording
// site's format only when Detail or String is called.
type Entry struct {
	T      Time
	Object string
	a, b   int64
	src    *origin
}

// MakeEntry builds an entry from a pre-rendered detail string (tests,
// external tooling). Its Object is parsed from the detail once, here: the
// last space-separated field with any "target=" prefix stripped.
func MakeEntry(t Time, pid int, proc, event, detail string) Entry {
	obj := detail[strings.LastIndexByte(detail, ' ')+1:]
	return Entry{
		T:      t,
		Object: strings.TrimPrefix(obj, "target="),
		src:    &origin{pid: pid, proc: proc, site: siteForeign, event: event, detail: detail},
	}
}

func (e Entry) from() *origin {
	if e.src == nil {
		return &zeroOrigin
	}
	return e.src
}

// PID reports the recording process's id (0 for kernel context).
func (e Entry) PID() int { return e.from().pid }

// Proc reports the recording process's name.
func (e Entry) Proc() string { return e.from().proc }

// Event reports the entry's event name ("flock", "sleep", ...).
func (e Entry) Event() string { return e.from().event }

// Detail renders the entry's detail text.
func (e Entry) Detail() string {
	o := e.from()
	s := sites[o.site]
	switch s.args {
	case argsObj:
		return fmt.Sprintf(s.format, e.Object)
	case argsIntObj:
		return fmt.Sprintf(s.format, e.a, e.Object)
	case argsDurDur:
		return fmt.Sprintf(s.format, Duration(e.a), Duration(e.b))
	}
	return o.detail
}

// String renders the entry in a compact single-line form.
func (e Entry) String() string {
	o := e.from()
	if d := e.Detail(); d != "" {
		return fmt.Sprintf("%12v  %s(%d)  %s: %s", e.T, o.proc, o.pid, o.event, d)
	}
	return fmt.Sprintf("%12v  %s(%d)  %s", e.T, o.proc, o.pid, o.event)
}

// Trace records kernel events for debugging, for rendering the paper's
// proof-of-concept figures and for the detector. A zero-capacity trace
// keeps everything.
type Trace struct {
	cap     int
	entries []Entry
	dropped int
	// origins maps a PID to its process's origin per site. A row is
	// replaced, never mutated, when its PID starts naming another process
	// (one trace attached across kernel runs): older entries keep theirs.
	origins []*[numSites]origin
}

// NewTrace returns a recorder keeping at most capacity entries
// (0 = unbounded).
func NewTrace(capacity int) *Trace {
	return &Trace{cap: capacity}
}

// minTraceGrowth is the entry capacity a trace's first growth reserves.
const minTraceGrowth = 64

func (t *Trace) record(now Time, p *Proc, s Site, obj string, a, b int64) {
	if len(t.entries) == cap(t.entries) {
		if t.cap > 0 && len(t.entries) >= t.cap {
			t.dropped++
			return
		}
		// Double rather than let append grow large slices by 1.25x, which
		// re-copies a long trace several times over; a bounded trace never
		// grows past its capacity.
		n := max(2*len(t.entries), minTraceGrowth)
		if t.cap > 0 {
			n = min(n, t.cap)
		}
		t.entries = append(make([]Entry, 0, n), t.entries...)
	}
	t.entries = append(t.entries, Entry{T: now, Object: obj, a: a, b: b, src: t.origin(p, s)})
}

// origin returns p's shared origin for site s, building p's row on its
// first entry.
func (t *Trace) origin(p *Proc, s Site) *origin {
	pid, name := 0, ""
	if p != nil {
		pid, name = p.id, p.name
	}
	if pid >= len(t.origins) {
		t.origins = append(t.origins, make([]*[numSites]origin, pid+1-len(t.origins))...)
	}
	row := t.origins[pid]
	if row == nil || row[0].proc != name {
		row = new([numSites]origin)
		for i := range row {
			row[i] = origin{pid: pid, proc: name, site: Site(i), event: sites[i].event}
		}
		t.origins[pid] = row
	}
	return &row[s]
}

// Entries returns the recorded entries in order.
func (t *Trace) Entries() []Entry { return t.entries }

// Dropped reports how many entries were discarded due to the capacity cap.
func (t *Trace) Dropped() int { return t.dropped }

// Len reports the number of retained entries.
func (t *Trace) Len() int { return len(t.entries) }

// Filter returns the entries whose Event matches any of the given names.
func (t *Trace) Filter(events ...string) []Entry {
	want := make(map[string]bool, len(events))
	for _, e := range events {
		want[e] = true
	}
	var out []Entry
	for _, e := range t.entries {
		if want[e.Event()] {
			out = append(out, e)
		}
	}
	return out
}

// String renders the whole trace, one entry per line.
func (t *Trace) String() string {
	var b strings.Builder
	for _, e := range t.entries {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	if t.dropped > 0 {
		fmt.Fprintf(&b, "... %d entries dropped\n", t.dropped)
	}
	return b.String()
}
