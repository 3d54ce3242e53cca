package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"time"
)

// roundSpec is what the parent hands one round. A round runs in a fresh
// child process (the harness re-executes itself with -round), so its
// set-up time and peak memory are cold and belong to one workload alone.
type roundSpec struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Round    int     `json:"round"`
	Seconds  float64 `json:"seconds"` // timed window after the first op
	Trace    bool    `json:"trace"`   // record spans around every other op
	// Prefix overrides the workload's exact-outcome prefix (0 keeps it);
	// the in-process tests shrink it to a few ops.
	Prefix int `json:"prefix"`
	// StartNs is the parent's wall clock just before it started the
	// child: set-up time is measured from it.
	StartNs int64 `json:"start_ns"`
}

// roundResult is what a round reports back, as one JSON line on the
// child's standard output.
type roundResult struct {
	ExecMs    float64 `json:"exec_ms"`     // parent start → child main
	FirstOpMs float64 `json:"first_op_ms"` // child main → first op done
	SetupS    float64 `json:"setup_s"`     // parent start → first op done
	LatNs     []int64 `json:"lat_ns"`      // wall time of ops 1..n-1
	Ops       int     `json:"ops"`         // ops attempted, the first included
	Failed    int     `json:"failed"`      // ops that failed outside the expected outcomes
	Exact     exact   `json:"exact"`
	// BitErrors/Bits total every completed transmission of the round.
	BitErrors int64  `json:"bit_errors"`
	Bits      int64  `json:"bits"`
	Spans     []span `json:"spans,omitempty"`
	// Cal holds the machine-speed measurements taken between ops.
	Cal      []calSample `json:"cal"`
	Problems []string    `json:"problems,omitempty"` // failed output checks
	// PeakRSSKB is the process's peak resident set at the end of set-up
	// (after the first op). Later in a round the peak depends on how far
	// the concurrent GC overshoots its goal, which varies with the machine's
	// speed; set-up is a fixed amount of work.
	PeakRSSKB int64 `json:"peak_rss_kb"`

	classes []byte // builds Exact.Classes
}

// exact holds the outcomes of a round's first prefix ops. They are pure
// functions of the seed and the code, so every round of a run must agree
// on them bit for bit, and they make the per-layer counts exact.
type exact struct {
	Classes   string  `json:"classes"`   // per transmission: '.' for a result, else the error class
	Completed int     `json:"completed"` // transmissions (Table IV rows on registry-quick) with a result
	BERSum    float64 `json:"ber_sum"`   // Σ payload BER (fraction) over completed transmissions
	TRSum     float64 `json:"tr_sum"`    // Σ transmission rate (kb/s) over the same
	Resyncs   int     `json:"resyncs"`
	SyncFails int     `json:"sync_fails"` // transmissions whose preamble check failed
	// Session kernel counters across ops 1..prefix-1 (steady-event).
	Switches uint64 `json:"switches"`
	Replayed uint64 `json:"replayed"`
	Windows  uint64 `json:"windows"`
	// Detector path (traced-detect).
	TraceEntries int64 `json:"trace_entries"`
	Flagged      int   `json:"flagged"`
}

// Error classes recorded in exact.Classes, one per core error sentinel.
const (
	classOK          = '.'
	classDeadlock    = 'D'
	classCrashed     = 'C'
	classSyncLoss    = 'S'
	classCalibration = 'K'
)

// problem records a failed output check; rounds report at most a few of
// each kind so a systematic failure does not flood the result.
func (r *roundResult) problem(format string, args ...any) {
	if len(r.Problems) < 8 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// span is one timed call from the harness into a layer. Spans of one op
// share its op id; the op's root span is named "op".
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the round's first op began
	End    int64  `json:"end_ns"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for the root
	Op     int    `json:"op"`
}

// tracer records spans in memory. A nil *tracer records nothing, which
// is how untraced ops run.
type tracer struct {
	base  time.Time
	op    int
	stack []int // indexes into spans of the open spans
	spans []span
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.spans[t.stack[n-1]].ID
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.base).Nanoseconds(),
		ID: len(t.spans) + 1, Parent: parent, Op: t.op})
	t.stack = append(t.stack, len(t.spans)-1)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].End = time.Since(t.base).Nanoseconds()
}

// runRound runs one round of spec's workload: the first op is set-up,
// then ops run back to back until the timed window has passed and at
// least the exact-outcome prefix is complete.
func runRound(spec roundSpec) (roundResult, error) {
	mainAt := time.Now()
	start := time.Unix(0, spec.StartNs)
	var res roundResult
	res.ExecMs = float64(mainAt.Sub(start).Nanoseconds()) / 1e6

	w, err := lookup(spec.Workload)
	if err != nil {
		return res, err
	}
	prefix := w.prefixOr(spec.Prefix)
	d, err := w.open(spec.Seed, prefix)
	if err != nil {
		return res, err
	}
	defer d.close()

	var t *tracer
	if spec.Trace {
		t = &tracer{base: time.Now()}
	}
	cal := newCalibrator()
	defer cal.stop()
	var deadline, lastCal time.Time
	for i := 0; ; i++ {
		// Every other op is traced, so traced and untraced ops see the
		// same machine and their medians give the tracing overhead.
		var ti *tracer
		if t != nil && i%2 == 1 {
			ti, t.op = t, i
		}
		t0 := time.Now()
		ti.begin("op")
		err := d.op(i, ti, &res)
		ti.end()
		elapsed := time.Since(t0)
		res.Ops++
		if err != nil {
			res.Failed++
			res.problem("op %d: %v", i, err)
		}
		if i == 0 {
			now := time.Now()
			res.SetupS = now.Sub(start).Seconds()
			res.FirstOpMs = float64(now.Sub(mainAt).Nanoseconds()) / 1e6
			deadline = now.Add(time.Duration(spec.Seconds * float64(time.Second)))
			if res.PeakRSSKB, err = peakRSSKB(); err != nil {
				return res, err
			}
		} else {
			res.LatNs = append(res.LatNs, elapsed.Nanoseconds())
		}
		if time.Since(lastCal) >= calEvery {
			res.Cal = append(res.Cal, calSample{Op: i, Ns: cal.measure()})
			lastCal = time.Now()
		}
		if i > 0 && i+1 >= prefix && !time.Now().Before(deadline) {
			break
		}
	}
	res.Exact.Classes = string(res.classes)
	if err := d.finish(spec.Round, &res); err != nil {
		return res, err
	}
	if t != nil {
		res.Spans = t.spans
	}
	return res, nil
}

// peakRSSKB reads the process's peak resident set size (VmHWM, KiB).
func peakRSSKB() (int64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(status, []byte("\n")) {
		if v, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			return strconv.ParseInt(string(bytes.TrimSuffix(bytes.TrimSpace(v), []byte(" kB"))), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
