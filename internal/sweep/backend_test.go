package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"dspatch/internal/sim"
)

// fakeBackend resolves runs without simulating: a run whose point matches
// dropIf is dropped with reason "boom", every other run completes with a
// result derived from its point. It records the runs it was handed.
type fakeBackend struct {
	dropIf func(Point) bool
	runs   []Point
}

func (f *fakeBackend) Execute(_ context.Context, runs []Point, done func(int, sim.Result) error, drop func(int, string) error) (*FleetSummary, error) {
	f.runs = append(f.runs, runs...)
	for i, p := range runs {
		var err error
		if f.dropIf != nil && f.dropIf(p) {
			err = drop(i, "boom")
		} else {
			err = done(i, fakeResult(p))
		}
		if err != nil {
			return nil, err
		}
	}
	return &FleetSummary{Workers: 1}, nil
}

// fakeResult is a deterministic, point-dependent stand-in for a simulation.
func fakeResult(p Point) sim.Result {
	ipc := 1 + float64(len(p.L2))/8 + float64(p.Workloads[0][0])/256
	return sim.Result{IPC: []float64{ipc}, Cycles: uint64(1000 * ipc)}
}

// flakyStore is a memStore whose Puts fail from the failAt-th call on.
type flakyStore struct {
	*memStore
	failAt, puts int
}

func (s *flakyStore) Put(key string, res sim.Result) error {
	s.puts++
	if s.puts >= s.failAt {
		return errors.New("disk full")
	}
	return s.memStore.Put(key, res)
}

// runJournaled runs c through eng with a fresh journal under dir and
// returns the stream and the journal's recovered state.
func runJournaled(t *testing.T, eng Engine, c Campaign, dir string) ([]string, *JournalState) {
	t.Helper()
	path := filepath.Join(dir, "c.journal")
	jl, err := CreateJournal(path, "j1", c)
	if err != nil {
		t.Fatal(err)
	}
	eng.Journal = jl
	lines := collect(t, eng, c)
	jl.Close()
	st, err := ReadJournalState(path)
	if err != nil {
		t.Fatal(err)
	}
	return lines, st
}

// sameStream compares two streams record by record, ignoring the summary's
// telemetry.
func sameStream(t *testing.T, want, got []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("stream has %d records, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		a, b := want[i], got[i]
		if i == len(want)-1 {
			a, b = stripSummaryTelemetry(t, a), stripSummaryTelemetry(t, b)
		}
		if a != b {
			t.Errorf("record %d differs:\nwant %s\ngot  %s", i, a, b)
		}
	}
}

// TestEngineDropsSharedRunForEveryWaiter drops the mcf baseline run, which
// the mcf baseline point and the mcf spp point both need: both points are
// dropped and journaled as drops, and a resume replays them without handing
// the backend a single run.
func TestEngineDropsSharedRunForEveryWaiter(t *testing.T) {
	c := journalCampaign()
	store := newMemStore()
	be := &fakeBackend{dropIf: func(p Point) bool { return p.Workloads[0] == "mcf" && p.L2 == "none" }}
	lines, st := runJournaled(t, Engine{Backend: be, Store: store}, c, t.TempDir())

	if len(be.runs) != 4 {
		t.Errorf("backend got %d runs, want 4 (the shared baseline once)", len(be.runs))
	}
	if len(lines) != 4 { // header + 2 tpcc points + summary
		t.Fatalf("stream has %d records, want 4:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	var sum Summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatal(err)
	}
	if len(sum.DroppedPoints) != 2 {
		t.Fatalf("dropped points = %+v, want both mcf points", sum.DroppedPoints)
	}
	for _, dp := range sum.DroppedPoints {
		if dp.Point.Workloads[0] != "mcf" || dp.Reason != "boom" {
			t.Errorf("dropped point = %+v, want an mcf point dropped with reason boom", dp)
		}
	}
	if len(st.Dropped) != 2 || len(st.Done) != 2 {
		t.Fatalf("journal: %d drops, %d dones; want 2 and 2", len(st.Dropped), len(st.Done))
	}
	for pos, reason := range st.Dropped {
		if reason != "boom" {
			t.Errorf("journaled drop of position %d has reason %q", pos, reason)
		}
	}

	resumed := &fakeBackend{}
	got := collect(t, Engine{Backend: resumed, Store: store, Resume: st}, c)
	if len(resumed.runs) != 0 {
		t.Errorf("resume handed the backend %d runs, want 0", len(resumed.runs))
	}
	sameStream(t, lines, got)
}

// TestEngineStoreDegradesOnce fails the store's second Put: the stream is
// unchanged, the journal claims only the point whose runs were stored
// before the failure, the store is not written again, and the degradation
// is logged exactly once.
func TestEngineStoreDegradesOnce(t *testing.T) {
	c := journalCampaign()
	want, _ := runJournaled(t, Engine{Backend: &fakeBackend{}, Store: newMemStore()}, c, t.TempDir())

	store := &flakyStore{memStore: newMemStore(), failAt: 2}
	var logs []string
	eng := Engine{
		Backend: &fakeBackend{},
		Store:   store,
		Logf:    func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) },
	}
	got, st := runJournaled(t, eng, c, t.TempDir())
	sameStream(t, want, got)

	// Runs execute in trace-identity order: mcf none, mcf spp, tpcc none,
	// tpcc spp. Only the mcf baseline point's run was stored in time.
	if len(st.Done) != 1 {
		t.Errorf("journal has %d done frames, want 1: %+v", len(st.Done), st.Done)
	}
	if store.puts != 2 {
		t.Errorf("store saw %d Puts, want 2 (none after it failed)", store.puts)
	}
	if len(logs) != 1 || !strings.Contains(logs[0], "store degraded") {
		t.Errorf("logs = %q, want one store degradation line", logs)
	}
	if !st.Sealed {
		t.Error("journal not sealed after a degraded store")
	}
}

// TestEngineBatchSize pins the in-process batch size: four runs per worker,
// GOMAXPROCS workers when unset, clamped to [16, 256].
func TestEngineBatchSize(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(10))
	for _, tc := range []struct {
		eng  Engine
		want int
	}{
		{Engine{}, 40},
		{Engine{Workers: 1}, 16},
		{Engine{Workers: 4}, 16},
		{Engine{Workers: 5}, 20},
		{Engine{Workers: 64}, 256},
		{Engine{Workers: 1000}, 256},
		{Engine{Workers: 2, batch: 3}, 3},
	} {
		if got := tc.eng.batchSize(); got != tc.want {
			t.Errorf("Workers=%d batch=%d: batchSize = %d, want %d", tc.eng.Workers, tc.eng.batch, got, tc.want)
		}
	}
	runtime.GOMAXPROCS(2)
	if got := (&Engine{}).batchSize(); got != 16 {
		t.Errorf("GOMAXPROCS=2: batchSize = %d, want 16", got)
	}
}
