package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"mes/internal/codec"
	"mes/internal/sim"
)

// traceGolden pins the sha256 of Trace.String() for a traced 400-bit
// transmission over every mechanism, keyed by mechanism and by whether
// the fault plane ran at rate 0.02 under Recover. Any drift in how an
// entry renders — the event name, the detail text, the proc column —
// changes a hash.
var traceGolden = map[string]map[bool]string{
	"flock": {
		false: "7f4f1565f53dbab887a9a2be0d0a33616fd04155b1d666c87dce661d383c8312",
		true:  "866d7d3248bfee6b2d4f019f61d42882435527d0abb5c9539bce5b3e0bb03fa4",
	},
	"FileLockEX": {
		false: "c0d36705c5e6b62adcae74acc89a4beefb274b0603ca304b639c661a37a34ca8",
		true:  "fee3e4d4610be60912b736946cb721ee77e1d9814a5977ddb2fce5c7236d87bb",
	},
	"Mutex": {
		false: "7da02311cb800fb557bd76a57fa30683ec5590a57071207dd3c605fb94e817dc",
		true:  "5bc9678be81f4e6f4e227a0df75473bb9b93231952ceb8432138cbc83e4573f6",
	},
	"Semaphore": {
		false: "b445358481122d7ce7713cb9804bac3c4952d0e5c39d5f7f4cc6556dcaba6c54",
		true:  "5a27f3b7831ca22b81df9be9412823be0db6846b54e44872c4ff3c281d7a39a4",
	},
	"Event": {
		false: "1136185b35ecacf641a5c6418a30afe14bace08a8538d2b486f108f468e497ae",
		true:  "4b5e6747c04320892c5ec38bae3755290587c71d2bb48ee5a5003809038e09b4",
	},
	"Timer": {
		false: "5ab9863803b680666caff0750ce865860b4ab0fd0c5021177f50036f28e5e675",
		true:  "e53382d49330c2eff6e12e9243ac8b57447fc13a681eff63d40e6b47f1e9c704",
	},
	"Futex": {
		false: "648e443d4274ff403a2481481de8cfd3ab1b2e7bd3bfeeff83d8f63fca24354a",
		true:  "6101f1393609c0251b796d517f471a13956cc85d5dc9c8b48457c82a8deca689",
	},
	"CondVar": {
		false: "ee2c81326148e9c4f1aebb257acd1ab3839f6ba83f5fe7a79908b0c6e9a6b101",
		true:  "78c8709e494b353e56078e1c37e2a932d6828787409b1a8a78e1633cf61f3c3a",
	},
	"WriteSync": {
		false: "63a7e153627aea501f9d2c3394af071e34b9cb57a2354ae174e3f197d074c5df",
		true:  "c5012a0816462526858891beecbe5a99defdc4d9d9b37bb75fbc1454787cdc33",
	},
}

// TestTraceRenderingGolden renders each cell's whole trace and compares
// its hash with the pinned one. The faulty cells include injected
// crashes, so the crash entry's rendering is pinned too. Each cell runs
// twice: through Run, and through a SessionCache whose session already
// ran an untraced trial of the mechanism at another seed — a trace must
// not depend on which engine path recorded it or what ran before.
func TestTraceRenderingGolden(t *testing.T) {
	payload := codec.Random(sim.NewRNG(11), 400)
	sc := NewSessionCache()
	defer sc.Close()
	crashes := 0
	for _, m := range Mechanisms() {
		for _, faulty := range []bool{false, true} {
			cfg := Config{Mechanism: m, Scenario: Local(), Payload: payload, Seed: 21}
			if faulty {
				cfg.FaultRate, cfg.FaultSeed, cfg.Recover = 0.02, 5, true
			}
			warm := cfg
			warm.Seed = 999
			// The warm-up trial may die to an injected fault; only its
			// history on the session matters.
			if _, err := sc.Run(warm); !faulty && err != nil {
				t.Fatalf("%v: untraced warm-up trial failed: %v", m, err)
			}
			for _, engine := range []struct {
				name string
				run  func(Config) (*Result, error)
			}{{"Run", Run}, {"session", sc.Run}} {
				tr := sim.NewTrace(0)
				cfg.Trace = tr
				// A faulty cell may end in an injected crash: the error is
				// part of the pinned outcome, the trace up to it still
				// renders.
				if _, err := engine.run(cfg); !faulty && err != nil {
					t.Fatalf("%v via %s: fault-free traced run failed: %v", m, engine.name, err)
				}
				crashes += len(tr.Filter("crash"))
				sum := sha256.Sum256([]byte(tr.String()))
				if got, want := hex.EncodeToString(sum[:]), traceGolden[m.String()][faulty]; got != want {
					t.Errorf("%v faulty=%v via %s: trace hash %s, want %s (%d entries)", m, faulty, engine.name, got, want, tr.Len())
				}
			}
		}
	}
	if crashes == 0 {
		t.Error("no faulty cell recorded a crash entry: the golden table no longer pins crash rendering")
	}
}
