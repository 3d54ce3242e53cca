package detect

import (
	"maps"
	"testing"

	"mes/internal/codec"
	"mes/internal/core"
	"mes/internal/osmodel"
	"mes/internal/sim"
	"mes/internal/timing"
	"mes/internal/vfs"
)

// channelTrace runs a flock covert channel with tracing and returns the
// kernel trace.
func channelTrace(t *testing.T, bits int) []sim.Entry {
	t.Helper()
	tr := sim.NewTrace(0)
	_, err := core.Run(core.Config{
		Mechanism: core.Flock,
		Scenario:  core.Local(),
		Payload:   codec.Random(sim.NewRNG(1), bits),
		Seed:      5,
		Trace:     tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr.Entries()
}

// benignTrace simulates ordinary lock users: ragged arrival times, varied
// hold times, several files.
func benignTrace(t *testing.T) []sim.Entry {
	t.Helper()
	tr := sim.NewTrace(0)
	sys := osmodel.NewSystem(osmodel.Config{
		Profile: timing.ProfileFor(timing.Linux, timing.Local),
		Seed:    9,
		Trace:   tr,
	})
	for i := 0; i < 3; i++ {
		path := []string{"/var/db.lock", "/var/spool.lock", "/var/cron.lock"}[i]
		if _, err := sys.CreateSharedFile(path, 0, false, false); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < 4; w++ {
		sys.Spawn("worker", sys.Host(), func(p *osmodel.Proc) {
			r := p.Rand()
			for i := 0; i < 400; i++ {
				path := []string{"/var/db.lock", "/var/spool.lock", "/var/cron.lock"}[r.Intn(3)]
				fd, err := p.OpenFile(path, false)
				if err != nil {
					return
				}
				p.Flock(fd, vfs.LockEx, false)
				p.Sleep(sim.Duration(r.ExpFloat64() * float64(150*sim.Microsecond)))
				p.Flock(fd, vfs.LockNone, false)
				p.CloseFd(fd)
				p.Sleep(sim.Duration(r.ExpFloat64() * float64(400*sim.Microsecond)))
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return tr.Entries()
}

func TestDetectorFlagsCovertChannel(t *testing.T) {
	flagged := Flagged(channelTrace(t, 1500))
	if len(flagged) == 0 {
		t.Fatal("covert flock channel not flagged")
	}
	if flagged[0].Events < 1000 {
		t.Fatalf("flagged resource has only %d events", flagged[0].Events)
	}
}

func TestDetectorPassesBenignWorkload(t *testing.T) {
	for _, s := range Analyze(benignTrace(t)) {
		if s.Suspicion >= Threshold {
			t.Fatalf("benign workload flagged: %v", s)
		}
	}
}

func TestDetectorSeparation(t *testing.T) {
	covert := Analyze(channelTrace(t, 1500))
	benign := Analyze(benignTrace(t))
	if len(covert) == 0 || len(benign) == 0 {
		t.Fatal("missing scores")
	}
	if covert[0].Suspicion <= benign[0].Suspicion {
		t.Fatalf("no separation: covert %.2f vs benign %.2f",
			covert[0].Suspicion, benign[0].Suspicion)
	}
}

func TestDetectorSmallSamples(t *testing.T) {
	entries := []sim.Entry{
		sim.MakeEntry(0, 0, "", "flock", "EX /f"),
		sim.MakeEntry(100, 0, "", "flock", "UN /f"),
	}
	scores := Analyze(entries)
	if len(scores) != 1 || scores[0].Suspicion != 0 {
		t.Fatalf("tiny series should score 0: %+v", scores)
	}
}

func TestDetectorIgnoresUnrelatedEvents(t *testing.T) {
	entries := []sim.Entry{
		sim.MakeEntry(0, 0, "", "sleep", "10µs"),
		sim.MakeEntry(5, 0, "", "exit", ""),
	}
	if got := Analyze(entries); len(got) != 0 {
		t.Fatalf("scored unrelated events: %v", got)
	}
}

// TestDistinctResourcesSharingFinalWord: two files whose paths end in the
// same space-separated word are two resources. Keying off the detail
// text's last field merged them into one "flock:b.txt" group.
func TestDistinctResourcesSharingFinalWord(t *testing.T) {
	tr := sim.NewTrace(0)
	sys := osmodel.NewSystem(osmodel.Config{
		Profile: timing.ProfileFor(timing.Linux, timing.Local),
		Seed:    3,
		Trace:   tr,
	})
	paths := []string{"/share/a b.txt", "/share/c b.txt"}
	for _, path := range paths {
		if _, err := sys.CreateSharedFile(path, 0, false, false); err != nil {
			t.Fatal(err)
		}
	}
	sys.Spawn("locker", sys.Host(), func(p *osmodel.Proc) {
		for _, path := range paths {
			fd, err := p.OpenFile(path, false)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 16; i++ {
				p.Flock(fd, vfs.LockEx, false)
				p.Sleep(30 * sim.Microsecond)
				p.Flock(fd, vfs.LockNone, false)
			}
			p.CloseFd(fd)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, s := range Analyze(tr.Entries()) {
		got[s.Resource] = s.Events
	}
	want := map[string]int{"flock:/share/a b.txt": 32, "flock:/share/c b.txt": 32}
	if !maps.Equal(got, want) {
		t.Fatalf("resources = %v, want %v", got, want)
	}
}
