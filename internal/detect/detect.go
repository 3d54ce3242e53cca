// Package detect implements a trace-based anomaly detector for MES covert
// channels — the defensive counterpart the paper's conclusion calls "a
// daunting and lengthy task". MES channels cannot be partitioned away like
// cache channels, but their *protocol discipline* is visible in kernel
// traces: a covert pair produces metronomic, high-rate operations on one
// object with a bimodal inter-operation spacing (the '0' and '1' times),
// while benign lock users arrive raggedly.
//
// The detector consumes the trace events of every traced channel family
// (see channelEvents: flock and futex lock/unlock, setevent and
// condsignal wakes, write/fsync journal activity, kill) and scores each
// resource on rate, regularity and bimodality.
package detect

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"mes/internal/sim"
)

// Score is the per-resource suspicion assessment.
type Score struct {
	Resource   string
	Events     int
	RatePerSec float64
	// Bimodality is the separation between the two interval clusters
	// (1-D 2-means) in units of their pooled spread (low for unimodal or
	// diffuse traffic).
	Bimodality float64
	// Concentration is the mass of the three most common interval bins:
	// a timing protocol repeats a handful of exact spacings ("metronome"
	// signature), benign lock users do not.
	Concentration float64
	// Suspicion combines the components in [0,1].
	Suspicion float64
}

// String renders the score.
func (s Score) String() string {
	return fmt.Sprintf("%-28s events=%-6d rate=%8.0f/s bimod=%5.2f conc=%4.2f suspicion=%4.2f",
		s.Resource, s.Events, s.RatePerSec, s.Bimodality, s.Concentration, s.Suspicion)
}

// Threshold above which a resource is flagged as a likely covert channel.
const Threshold = 0.5

// resID groups entries by event kind and resource without materializing
// a key string per entry.
type resID struct {
	event string
	res   string
}

// channelEvents is the set of trace events a covert pair's protocol
// discipline shows up in, one per mechanism family: flock and futex
// lock/unlock pairs, Event and condvar signals, fsync journal commits
// (the WriteSync channel's observable), write bursts, and the signal
// channel's kills. Every event recorded by a channel's per-symbol path
// must be listed here — a mechanism whose events are missing is
// invisible to the detector (the audit TestAnalyzeCoversChannelEvents
// pins the list against the mechanisms' traced syscalls).
//
//mes:mechevents-keys
var channelEvents = map[string]bool{
	"flock":      true,
	"setevent":   true,
	"kill":       true,
	"futex":      true,
	"condsignal": true,
	"fsync":      true,
	"write":      true,
}

// Analyzer scans traces for covert-channel discipline while reusing every
// piece of per-scan scratch: the resource grouping map, the per-resource
// timestamp series, the interval/cluster/bin buffers and the score slice
// all persist across scans, so a warmed Analyzer scores a trace with
// (amortized) zero heap allocations. The zero value is ready to use. An
// Analyzer is not safe for concurrent use; give each scanning goroutine
// its own.
type Analyzer struct {
	groups map[resID]int // resource → index into ids/series
	ids    []resID       // insertion-ordered resources of the open scan
	series [][]sim.Time  // per-resource timestamps, reused backing arrays
	names  map[resID]string
	out    []Score

	// scoreSeries scratch.
	intervals []float64
	lo, hi    []float64
	bins      map[int]int
	counts    []int
}

// NewAnalyzer returns an Analyzer with its maps pre-built.
func NewAnalyzer() *Analyzer {
	return &Analyzer{
		groups: make(map[resID]int),
		names:  make(map[resID]string),
		bins:   make(map[int]int),
	}
}

// Analyze scores every resource appearing in the trace's channel-relevant
// events, most suspicious first. Entries group by their event and the
// resource each carries (Entry.Object), so scanning a trace parses and
// renders nothing per entry, and a run of entries on one resource costs
// no map lookup after its first; the displayed resource name is interned
// once per unique resource for the Analyzer's lifetime. The returned
// slice is borrowed: it is valid until the Analyzer's next scan.
func (a *Analyzer) Analyze(entries []sim.Entry) []Score {
	if a.groups == nil {
		a.groups = make(map[resID]int)
		a.names = make(map[resID]string)
		a.bins = make(map[int]int)
	}
	clear(a.groups)
	a.ids = a.ids[:0]
	a.out = a.out[:0]
	last, idx := resID{}, -1
	for _, e := range entries {
		if e.Object == "" {
			continue // park, sleep, exit, crash: no resource to group by
		}
		id := resID{event: e.Event(), res: e.Object}
		if idx < 0 || id != last {
			if !channelEvents[id.event] {
				continue
			}
			last, idx = id, a.group(id)
		}
		a.series[idx] = append(a.series[idx], e.T)
	}
	for i, id := range a.ids {
		name, ok := a.names[id]
		if !ok {
			name = resourceName(id)
			a.names[id] = name
		}
		a.out = append(a.out, a.scoreSeries(name, a.series[i]))
	}
	// Tie-break equal suspicions by resource name: without it, the order
	// of tied scores would leak accumulation order into reports. The
	// comparator captures nothing, so the sort does not allocate.
	slices.SortFunc(a.out, func(x, y Score) int {
		if x.Suspicion != y.Suspicion {
			return cmp.Compare(y.Suspicion, x.Suspicion)
		}
		return strings.Compare(x.Resource, y.Resource)
	})
	return a.out
}

// group returns id's index into ids/series, opening a group (reusing a
// series backing array) on the resource's first entry of the scan.
func (a *Analyzer) group(id resID) int {
	idx, ok := a.groups[id]
	if !ok {
		idx = len(a.ids)
		a.ids = append(a.ids, id)
		if idx < len(a.series) {
			a.series[idx] = a.series[idx][:0]
		} else {
			a.series = append(a.series, nil)
		}
		a.groups[id] = idx
	}
	return idx
}

// Analyze scores a trace with a one-shot Analyzer — the convenience form
// for callers outside scanning loops. The result is caller-owned.
func Analyze(entries []sim.Entry) []Score {
	var a Analyzer
	return a.Analyze(entries)
}

// resourceName renders the per-resource display key: kill entries show
// the "target=<proc>" form their detail text ends with (the id stores the
// bare target name).
func resourceName(id resID) string {
	if id.event == "kill" {
		return id.event + ":target=" + id.res
	}
	return id.event + ":" + id.res
}

// Flagged returns the resources whose suspicion exceeds the threshold.
func Flagged(entries []sim.Entry) []Score {
	var out []Score
	for _, s := range Analyze(entries) {
		if s.Suspicion >= Threshold {
			out = append(out, s)
		}
	}
	return out
}

// scoreSeries computes the suspicion components for one resource, using
// the Analyzer's reusable interval/cluster/bin scratch.
func (a *Analyzer) scoreSeries(res string, times []sim.Time) Score {
	s := Score{Resource: res, Events: len(times)}
	if len(times) < 8 {
		return s
	}
	slices.Sort(times)
	span := times[len(times)-1].Sub(times[0]).Seconds()
	if span > 0 {
		s.RatePerSec = float64(len(times)-1) / span
	}
	intervals := a.intervals[:0]
	for i := 1; i < len(times); i++ {
		intervals = append(intervals, times[i].Sub(times[i-1]).Micros())
	}
	a.intervals = intervals
	s.Concentration = a.topBinMass(intervals, 5.0, 3)
	lo, hi := a.twoMeans(intervals)
	if len(lo) >= len(intervals)/10 && len(hi) >= len(intervals)/10 {
		mLo, sdLo := meanStd(lo)
		mHi, sdHi := meanStd(hi)
		pooled := math.Sqrt((sdLo*sdLo + sdHi*sdHi) / 2)
		if pooled < 1e-9 {
			pooled = 1e-9
		}
		s.Bimodality = (mHi - mLo) / pooled
	}
	// Combine: channels are fast and metronomic (a handful of exact
	// spacings); bimodality corroborates. The rate term saturates at
	// 7000/s — above every benign lock workload we model (heaviest ≈
	// 4500/s) yet at or below every traced channel's per-symbol event rate
	// (the slowest, WriteSync's fsync stream, runs ≈ 7500/s) — and carries
	// 0.30 of the weight, so a mechanism whose interval spectrum is
	// comparatively diffuse (futex's lock/unlock pairs on both sides
	// interleave four spacings) still clears the flag threshold on its
	// rate discipline. Calibration is pinned by detect's threshold tests
	// and the cross-mechanism audit in channels_test.go.
	rateTerm := math.Min(s.RatePerSec/7000, 1)
	bimodTerm := math.Min(s.Bimodality/8, 1)
	s.Suspicion = 0.30*rateTerm + 0.55*math.Max(0, (s.Concentration-0.20)/0.80) + 0.15*bimodTerm
	if s.Suspicion > 1 {
		s.Suspicion = 1
	}
	return s
}

// topBinMass quantizes samples into binWidth-µs bins and returns the mass
// fraction of the k most populated bins.
func (a *Analyzer) topBinMass(v []float64, binWidth float64, k int) float64 {
	if len(v) == 0 {
		return 0
	}
	if a.bins == nil {
		a.bins = make(map[int]int)
	}
	clear(a.bins)
	for _, x := range v {
		a.bins[int(x/binWidth)]++
	}
	counts := a.counts[:0]
	//lint:allow detnondet the counts are sorted with a total order before any are consumed
	for _, c := range a.bins {
		counts = append(counts, c)
	}
	slices.SortFunc(counts, func(x, y int) int { return cmp.Compare(y, x) })
	a.counts = counts
	top := 0
	for i := 0; i < k && i < len(counts); i++ {
		top += counts[i]
	}
	return float64(top) / float64(len(v))
}

// twoMeans clusters samples with 1-D 2-means (Lloyd iterations). The
// returned slices are the Analyzer's reusable cluster buffers.
func (a *Analyzer) twoMeans(v []float64) (lo, hi []float64) {
	if len(v) < 2 {
		return v, nil
	}
	lo, hi = a.lo, a.hi
	defer func() { a.lo, a.hi = lo, hi }()
	minV, maxV := v[0], v[0]
	for _, x := range v {
		minV = min(minV, x)
		maxV = max(maxV, x)
	}
	cLo, cHi := minV, maxV
	for iter := 0; iter < 24; iter++ {
		lo, hi = lo[:0], hi[:0]
		for _, x := range v {
			if math.Abs(x-cLo) <= math.Abs(x-cHi) {
				lo = append(lo, x)
			} else {
				hi = append(hi, x)
			}
		}
		newLo, _ := meanStd(lo)
		newHi, _ := meanStd(hi)
		if newLo == cLo && newHi == cHi {
			break
		}
		if len(lo) > 0 {
			cLo = newLo
		}
		if len(hi) > 0 {
			cHi = newHi
		}
	}
	return lo, hi
}

func meanStd(v []float64) (mean, std float64) {
	if len(v) == 0 {
		return 0, 0
	}
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	for _, x := range v {
		std += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(std / float64(len(v)))
}
