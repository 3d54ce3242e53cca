package main

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestBenchSchemaRoundTrip pins the mes-bench/v3 measurement-file format:
// a fully populated file must survive marshal→unmarshal unchanged, so a
// later PR's -benchbaseline embedding reproduces this PR's numbers
// exactly.
func TestBenchSchemaRoundTrip(t *testing.T) {
	in := benchFile{
		Schema:     benchSchema,
		Go:         "go1.24.0",
		GOMAXPROCS: 1,
		Before: &benchResults{
			KernelEventsPerSec:      5.6e6,
			TransmissionNsPerOp:     830000,
			TransmissionAllocsPerOp: 10,
			Fig9Workers1Ms:          36.7,
			Fig9WorkersNMs:          36.7,
			ContextSwitchNsPerOp:    181,
		},
		After: benchResults{
			KernelEventsPerSec:      6.9e6,
			KernelNsPerEvent:        145,
			KernelAllocsPerEvent:    0,
			TransmissionNsPerOp:     760000,
			TransmissionAllocsPerOp: 6,
			Fig9Workers1Ms:          30,
			Fig9WorkersNMs:          30,
			ContextSwitchNsPerOp:    140,
			DetectEntriesPerSec:     5.8e6,
			DetectAllocsPerScan:     201,
			SessionTrialNsPerOp:     740000,
			TrialAllocsSteadyState:  0,
			RegistryQuickMs:         150,
		},
	}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out benchFile
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("schema round trip diverged:\n in: %+v\nout: %+v", in, out)
	}
	if !benchSchemas[out.Schema] {
		t.Fatalf("the schema this binary writes (%q) is not accepted as a baseline", out.Schema)
	}
}

// TestBenchSchemaAcceptsOlderBaselines: v1 and v2 files (no session/
// registry rows, v1 also no context-switch/detector rows) must parse as
// baselines with the missing columns reading zero; unknown schemas are
// rejected.
func TestBenchSchemaAcceptsOlderBaselines(t *testing.T) {
	v1 := []byte(`{
		"schema": "mes-bench/v1",
		"go": "go1.24.0",
		"gomaxprocs": 1,
		"after": {
			"kernel_events_per_sec": 2171377,
			"kernel_ns_per_event": 460.5,
			"kernel_allocs_per_event": 0,
			"transmission_ns_per_op": 1672579,
			"transmission_allocs_per_op": 49,
			"fig9_workers1_ms": 72.4,
			"fig9_workersN_ms": 72.4
		}
	}`)
	v2 := []byte(`{
		"schema": "mes-bench/v2",
		"go": "go1.24.0",
		"gomaxprocs": 1,
		"after": {
			"kernel_events_per_sec": 5588064,
			"transmission_ns_per_op": 796950,
			"transmission_allocs_per_op": 10,
			"context_switch_ns_per_op": 181.4,
			"detect_entries_per_sec": 5882818,
			"detect_allocs_per_scan": 201
		}
	}`)
	for name, raw := range map[string][]byte{"v1": v1, "v2": v2} {
		var f benchFile
		if err := json.Unmarshal(raw, &f); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !benchSchemas[f.Schema] {
			t.Errorf("%s: schema %q rejected as baseline", name, f.Schema)
		}
		if f.After.RegistryQuickMs != 0 || f.After.TrialAllocsSteadyState != 0 {
			t.Errorf("%s: v3 columns should read zero (not measured), got registry=%v allocs=%v",
				name, f.After.RegistryQuickMs, f.After.TrialAllocsSteadyState)
		}
	}
	if benchSchemas["mes-bench/v0"] || benchSchemas["something-else"] {
		t.Error("unknown schemas must be rejected")
	}
}

// TestLoadCheckedInBaseline: the measurement file `make perf-smoke`
// gates against must load as a baseline, including keys (replay_hit_rate)
// that this binary no longer writes.
func TestLoadCheckedInBaseline(t *testing.T) {
	base, err := loadBaseline("../../BENCH_PR10.json")
	if err != nil {
		t.Fatal(err)
	}
	if base.After.RegistryQuickMs <= 0 || base.After.KernelNsPerEvent <= 0 || base.After.ContextSwitchNsPerOp <= 0 {
		t.Errorf("BENCH_PR10.json lost the rows -perfcheck gates on: %+v", base.After)
	}
	if base.After.SwitchesPerBit <= 0 {
		t.Errorf("switches_per_bit did not load: %v", base.After.SwitchesPerBit)
	}
}
