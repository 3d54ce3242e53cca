package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"mes/internal/experiments"
)

// metric is one reported number. Values measured per round are the
// median over the rounds, with their quartiles in q1/q3; values measured
// once (exact counts, microbenchmarks) carry themselves as quartiles.
type metric struct {
	name, unit string
	spread
	note string
}

func once(name, unit string, v float64) metric {
	return metric{name: name, unit: unit, spread: spread{v, v, v}}
}

// value returns the value of the metric named name, or 0 if there
// is none.
func value(ms []metric, name string) float64 {
	if i := slices.IndexFunc(ms, func(m metric) bool { return m.name == name }); i >= 0 {
		return ms[i].med
	}
	return 0
}

// result collects one workload's rounds and the metrics derived from them.
type result struct {
	w        *workload
	prefix   int // effective exact-outcome prefix
	untraced []roundResult
	traced   []roundResult
	e2e      []metric
	layers   []metric
	selfUs   map[string]float64 // per-layer self time per traced op
	calUs    float64            // median calibration kernel time, untraced pass
	problems []string
}

// rounds returns every round of both passes.
func (r *result) rounds() []roundResult { return append(slices.Clone(r.untraced), r.traced...) }

// check gathers the rounds' failed output checks and compares their exact
// outcomes: every round replays the same op sequence, so they must agree.
func (r *result) check() {
	first := r.rounds()[0].Exact
	for _, pass := range []struct {
		name string
		rs   []roundResult
	}{{"untraced", r.untraced}, {"traced", r.traced}} {
		for i, rr := range pass.rs {
			for _, p := range rr.Problems {
				r.problems = append(r.problems, fmt.Sprintf("%s %s round %d: %s", r.w.name, pass.name, i, p))
			}
			if rr.Exact != first {
				r.problems = append(r.problems, fmt.Sprintf("%s %s round %d: outcomes of the first %d ops differ from the first round's",
					r.w.name, pass.name, i, r.prefix))
			}
		}
	}
}

// endToEnd derives the user-visible metrics from the untraced rounds.
// A shared machine changes speed for seconds to minutes at a time with
// its neighbours' load. Two measures keep that out of the numbers: every
// op time and the set-up time are scaled to the reference speed by the
// calibration kernel timed next to them (see calib.go), and the median
// op time and the throughput come from each round's quietest window of
// consecutive ops: a slower build is slower in every window, a noisy
// neighbour only in some.
func (r *result) endToEnd() {
	var setup, rate, p50, rss, cal, pooled []float64
	for _, rr := range r.untraced {
		lat := scaled(rr)
		pooled = append(pooled, lat...)
		quiet := quietWindow(lat, r.w.window)
		total := 0.0
		for _, v := range quiet {
			total += v
		}
		setup = append(setup, rr.SetupS*calRefNs/float64(rr.Cal[0].Ns))
		rate = append(rate, float64(len(quiet))/total*1e3)
		p50 = append(p50, median(quiet))
		rss = append(rss, float64(rr.PeakRSSKB)/1024)
		cal = append(cal, calMedianUs(rr))
	}
	// The tail is taken over every round's ops pooled, so that at least
	// ten samples lie beyond it.
	tail := quantile(pooled, r.w.tailQ)
	beyond := 0
	for _, v := range pooled {
		if v > tail {
			beyond++
		}
	}
	r.calUs = median(cal)
	r.e2e = []metric{
		{name: "setup_s", unit: "s", spread: summarize(setup)},
		{name: "ops_per_s", unit: "op/s", spread: summarize(rate)},
		{name: "op_p50_ms", unit: "ms", spread: summarize(p50)},
		{name: "op_tail_ms", unit: "ms", spread: spread{tail, tail, tail},
			note: fmt.Sprintf("p%g of %d ops, %d beyond", 100*r.w.tailQ, len(pooled), beyond)},
		{name: "peak_rss_mb", unit: "MB", spread: summarize(rss)},
	}
}

// quietWindow cuts lat into consecutive windows of n ops and returns a
// copy of the one with the lowest median (all of lat if it is shorter).
func quietWindow(lat []float64, n int) []float64 {
	best, bestMed := lat, math.Inf(1)
	for i := 0; i+n <= len(lat); i += n {
		if m := median(slices.Clone(lat[i : i+n])); m < bestMed {
			best, bestMed = lat[i:i+n], m
		}
	}
	return slices.Clone(best)
}

// layerOf names the layer a span's time belongs to: the module prefix of
// the call it wraps, or the harness for the op's root span.
func layerOf(name string) string {
	if name == "op" {
		return "harness"
	}
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes returns one traced round's self time per layer (span
// duration minus its children's) and per registry experiment, both
// averaged per traced op, in µs.
func selfTimes(spans []span) (layers, entries map[string]float64) {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent > 0 {
			child[s.Parent-1] += s.End - s.Start
		}
	}
	layers, entries = map[string]float64{}, map[string]float64{}
	ops := 0
	for i, s := range spans {
		if s.Parent == 0 {
			ops++
		}
		layers[layerOf(s.Name)] += float64(s.End-s.Start-child[i]) / 1e3
		if e, ok := strings.CutPrefix(s.Name, "experiments."); ok && e != "ResetCaches" {
			entries[e] += float64(s.End-s.Start) / 1e3
		}
	}
	for _, m := range []map[string]float64{layers, entries} {
		for k := range m {
			m[k] /= float64(max(ops, 1))
		}
	}
	return layers, entries
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer derives the per-layer metrics from the traced rounds and
// their exact outcomes, and adds the microbenchmark unit costs micro.
func (r *result) perLayer(micro []metric) {
	ex := r.traced[0].Exact
	ops, trials := float64(r.prefix), float64(len(ex.Classes))
	classFrac := func(c byte) float64 { return ratio(float64(strings.Count(ex.Classes, string(c))), trials) }

	// Self times and tracing overhead, per round.
	exps := experiments.Registry()
	var harness, core, detect, overhead []float64
	entries := map[string][]float64{}
	r.selfUs = map[string]float64{}
	for _, rr := range r.traced {
		layers, ents := selfTimes(rr.Spans)
		harness = append(harness, layers["harness"])
		core = append(core, layers["core"])
		detect = append(detect, layers["detect"])
		for _, e := range exps {
			entries[e.Name] = append(entries[e.Name], ents[e.Name]/1e3)
		}
		for k, v := range layers {
			r.selfUs[k] += v / float64(len(r.traced))
		}
		// Op i is traced when i is odd; LatNs[j] is op j+1.
		var on, off []float64
		for j, ns := range rr.LatNs {
			if j%2 == 0 {
				on = append(on, float64(ns)/1e3)
			} else {
				off = append(off, float64(ns)/1e3)
			}
		}
		overhead = append(overhead, median(on)-median(off))
	}

	trialUs := summarize(core)
	bitsPerOp := float64(len(r.w.probe(0).Payload)) // the same for every seed
	var explained, residue, share float64
	if ex.Windows > 0 {
		// What the measured unit costs explain of a steady trial: its
		// coroutine switches, its decode and its codec work.
		switchesPerOp := float64(ex.Switches) / (ops - 1)
		explained = switchesPerOp*value(micro, "sim.switch_ns")/1e3 + value(micro, "core.decode_us") +
			(value(micro, "codec.pack_ns_per_bit")+value(micro, "codec.unpack_ns_per_bit"))*bitsPerOp/1e3
		residue = trialUs.med - explained
		share = ratio(residue, trialUs.med)
	}

	r.layers = append(micro,
		metric{name: "setup.exec_ms", unit: "ms", spread: summarize(field(r.traced, func(rr roundResult) float64 { return rr.ExecMs }))},
		metric{name: "setup.first_op_ms", unit: "ms", spread: summarize(field(r.traced, func(rr roundResult) float64 { return rr.FirstOpMs }))},
		once("sim.switches_per_bit", "switch/bit", ratio(float64(ex.Switches), float64(ex.Windows))),
		once("sim.replay_hit_rate", "ratio", ratio(float64(ex.Replayed), float64(ex.Windows))),
		once("sim.trace_entries_per_op", "entry/op", ratio(float64(ex.TraceEntries), ops)),
		metric{name: "core.trial_us", unit: "us", spread: trialUs},
		once("core.ber_pct", "%", 100*ratio(ex.BERSum, float64(ex.Completed))),
		once("core.tr_kbps", "kb/s", ratio(ex.TRSum, float64(ex.Completed))),
		once("core.resyncs_per_op", "resync/op", ratio(float64(ex.Resyncs), ops)),
		once("core.sync_fail_frac", "ratio", ratio(float64(ex.SyncFails), float64(ex.Completed))),
		once("core.err_deadlock_frac", "ratio", classFrac(classDeadlock)),
		once("core.err_crashed_frac", "ratio", classFrac(classCrashed)),
		once("core.err_syncloss_frac", "ratio", classFrac(classSyncLoss)),
		once("core.err_calibration_frac", "ratio", classFrac(classCalibration)),
		metric{name: "detect.scan_us", unit: "us", spread: summarize(detect)},
		once("detect.flagged_frac", "ratio", ratio(float64(ex.Flagged), trials)),
	)
	for _, e := range exps {
		r.layers = append(r.layers, metric{name: "experiments." + e.Name + "_ms", unit: "ms", spread: summarize(entries[e.Name])})
	}
	r.layers = append(r.layers,
		metric{name: "harness.self_us", unit: "us", spread: summarize(harness)},
		metric{name: "harness.calib_us", unit: "us", spread: summarize(field(r.traced, calMedianUs))},
		metric{name: "trace.overhead_us", unit: "us", spread: summarize(overhead)},
		once("recon.explained_us", "us", explained),
		once("recon.residue_us", "us", residue),
		once("recon.residue_share", "ratio", share),
	)
	// Sorting by name groups the metrics by layer.
	slices.SortFunc(r.layers, func(a, b metric) int { return strings.Compare(a.name, b.name) })
}

func field(rs []roundResult, f func(roundResult) float64) []float64 {
	out := make([]float64, len(rs))
	for i, rr := range rs {
		out[i] = f(rr)
	}
	return out
}

// report is one benchmark run's outcome across workloads.
type report struct {
	seed    uint64
	seconds float64
	rounds  int
	results []*result
}

func (rep *report) correct() bool {
	for _, r := range rep.results {
		if len(r.problems) > 0 {
			return false
		}
	}
	return true
}

// print writes every metric by name with its unit, then, as the last
// line, the JSON summary. With one workload the JSON keys are the metric
// names; with several they are prefixed with the workload's name.
func (rep *report) print(w io.Writer) error {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	sum := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: rep.correct(), Metrics: map[string]jsonMetric{}}

	for _, r := range rep.results {
		fmt.Fprintf(w, "== %s: closed loop, 1 client, %d rounds × %.3gs per pass, seed %d\n",
			r.w.name, rep.rounds, rep.seconds/float64(rep.rounds), rep.seed)
		attempted, failed := 0, 0
		for _, rr := range r.rounds() {
			attempted += rr.Ops
			failed += rr.Failed
		}
		sum.Attempted += attempted
		sum.Failed += failed
		fmt.Fprintf(w, "  ops: %d attempted, %d failed (failed_frac %.4g)\n", attempted, failed, ratio(float64(failed), float64(attempted)))
		key := func(name string) string {
			if len(rep.results) == 1 {
				return name
			}
			return r.w.name + "." + name
		}
		for _, group := range []struct {
			title string
			ms    []metric
		}{
			{fmt.Sprintf("end to end (untraced pass; times scaled by the calibration kernel: %.1f µs here, %g µs at the reference speed)", r.calUs, calRefNs/1e3), r.e2e},
			{"per layer (traced pass)", r.layers},
		} {
			if len(group.ms) == 0 {
				continue
			}
			fmt.Fprintf(w, "  %s\n", group.title)
			for _, m := range group.ms {
				fmt.Fprintf(w, "    %-32s %14.6g %-10s q1 %-12.6g q3 %-12.6g %s\n", m.name, m.med, m.unit, m.q1, m.q3, m.note)
				sum.Metrics[key(m.name)] = jsonMetric{m.med, m.unit}
			}
		}
		if len(r.selfUs) > 0 {
			total := 0.0
			for _, v := range r.selfUs {
				total += v
			}
			fmt.Fprintf(w, "  self time per traced op (span duration minus children), %.1f µs in all\n", total)
			layers := make([]string, 0, len(r.selfUs))
			for k := range r.selfUs {
				layers = append(layers, k)
			}
			slices.Sort(layers)
			for _, k := range layers {
				fmt.Fprintf(w, "    %-12s %12.2f µs  %5.1f%%\n", k, r.selfUs[k], 100*ratio(r.selfUs[k], total))
			}
		}
		if ex := r.rounds()[0].Exact; ex.Windows > 0 && len(r.layers) > 0 {
			fmt.Fprintf(w, "  reconciliation: core.trial_us %.1f µs = %.1f explained (%.0f switches × sim.switch_ns + core.decode_us + codec) + %.1f residue (%.0f%%)\n",
				value(r.layers, "core.trial_us"), value(r.layers, "recon.explained_us"), float64(ex.Switches)/float64(r.prefix-1),
				value(r.layers, "recon.residue_us"), 100*value(r.layers, "recon.residue_share"))
		}
		for _, p := range r.problems {
			fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
