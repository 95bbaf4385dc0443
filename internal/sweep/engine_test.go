package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"dspatch/internal/experiments"
	"dspatch/internal/sim"
)

// collect runs c and returns every emitted NDJSON line.
func collect(t *testing.T, e Engine, c Campaign) []string {
	t.Helper()
	var lines []string
	_, err := e.Run(context.Background(), c, func(line json.RawMessage) error {
		lines = append(lines, string(line))
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return lines
}

// stripSummaryTelemetry zeroes the summary record's non-deterministic fields
// (engine cache/sim deltas, elapsed time) so streams can be compared.
func stripSummaryTelemetry(t *testing.T, line string) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("summary: %v", err)
	}
	delete(m, "engine")
	delete(m, "elapsed_ms")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestCampaignDeterministicStream is the determinism suite: the same spec
// (and sampling seed) must yield a byte-identical NDJSON stream — modulo the
// summary's telemetry fields — across runs, worker counts and batch sizes.
func TestCampaignDeterministicStream(t *testing.T) {
	c := Campaign{
		Name: "det",
		Base: Point{Refs: 601},
		Axes: Axes{
			Workloads: []Mix{{"mcf"}, {"tpcc"}, {"linpack"}},
			Seeds:     []int64{1, 2},
			L2:        []string{"none", "spp", "bop"},
		},
		Sample: Sample{Strategy: StrategyRandom, Points: 12, Seed: 3},
	}
	runs := [][]string{
		collect(t, Engine{Workers: 1, batch: 3}, c),
		collect(t, Engine{Workers: 4, batch: 5}, c),
		collect(t, Engine{Workers: 2}, c),
	}
	for i := 1; i < len(runs); i++ {
		if len(runs[i]) != len(runs[0]) {
			t.Fatalf("run %d emitted %d records, run 0 emitted %d", i, len(runs[i]), len(runs[0]))
		}
		for k := range runs[0] {
			a, b := runs[0][k], runs[i][k]
			if k == len(runs[0])-1 {
				a, b = stripSummaryTelemetry(t, a), stripSummaryTelemetry(t, b)
			}
			if a != b {
				t.Errorf("run %d record %d differs:\n%s\n%s", i, k, a, b)
			}
		}
	}
	// Shape sanity: header, 12 points, summary.
	if len(runs[0]) != 14 {
		t.Fatalf("records = %d, want 14", len(runs[0]))
	}
}

// TestCampaignResumeSimulatesOnlyMissingPoints is the kill-and-resume proof:
// a campaign canceled partway is resubmitted and must re-simulate only the
// points the first run never finished — across both runs every distinct
// point simulates exactly once, and a third submission is a pure cache hit
// (engine sims delta zero). Asserted via the engine Counters ledger.
func TestCampaignResumeSimulatesOnlyMissingPoints(t *testing.T) {
	c := Campaign{
		Name: "resume",
		Base: Point{Refs: 733}, // distinctive refs: no other test shares these runs
		Axes: Axes{
			Workloads: []Mix{{"mcf"}, {"tpcc"}},
			Seeds:     []int64{21, 22, 23},
			L2:        []string{"none", "spp"},
		},
	}
	const totalPoints = 12 // every point is a distinct simulation

	// Run 1: kill the campaign after the first batch lands.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng := Engine{Workers: 2, batch: 4}
	c0 := experiments.EngineCounters()
	var firstLines []string
	_, err := eng.Run(ctx, c, func(line json.RawMessage) error {
		firstLines = append(firstLines, string(line))
		if bytes.Contains(line, []byte(`"type":"point"`)) {
			cancel() // "kill" as soon as the first batch of points lands
		}
		return nil
	})
	if err == nil {
		t.Fatal("canceled campaign returned nil error")
	}
	c1 := experiments.EngineCounters()
	simsFirst := c1.Sims - c0.Sims
	if simsFirst == 0 || simsFirst >= totalPoints {
		t.Fatalf("first (killed) run simulated %d of %d points; want a strict subset", simsFirst, totalPoints)
	}

	// Run 2: resubmit the identical campaign. Only the missing points may
	// simulate; everything the killed run completed comes from the memo.
	lines := collect(t, eng, c)
	c2 := experiments.EngineCounters()
	simsResumed := c2.Sims - c1.Sims
	if simsFirst+simsResumed != totalPoints {
		t.Errorf("sims first=%d + resumed=%d != %d: a cached point was re-simulated (or one was lost)",
			simsFirst, simsResumed, totalPoints)
	}

	// The killed run's partial stream must be a byte-identical prefix of the
	// resumed run's stream: resumption changes nothing but the work done.
	for i, line := range firstLines {
		if lines[i] != line {
			t.Errorf("resumed record %d differs from killed run's:\n%s\n%s", i, lines[i], line)
		}
	}

	// Run 3: fully cached — zero simulations.
	collect(t, eng, c)
	c3 := experiments.EngineCounters()
	if d := c3.Sims - c2.Sims; d != 0 {
		t.Errorf("fully-cached resubmission simulated %d points, want 0", d)
	}
	if hits := c3.MemoHits - c2.MemoHits; hits == 0 {
		t.Error("fully-cached resubmission recorded no memo hits")
	}
}

// TestCampaignDiskCacheResume proves resume-for-free across processes: with
// the persistent cache enabled and the in-process memo dropped (a process
// restart), a resubmitted campaign is served entirely from disk.
func TestCampaignDiskCacheResume(t *testing.T) {
	dir := t.TempDir()
	if err := experiments.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		experiments.SetCacheDir("")
		experiments.ResetMemo()
	})

	c := Campaign{
		Base: Point{Refs: 877}, // distinctive refs: runs unique to this test
		Axes: Axes{Workloads: []Mix{{"mcf"}, {"kmeans"}}, L2: []string{"none", "spp"}},
	}
	eng := Engine{Workers: 2}
	first := collect(t, eng, c)

	experiments.ResetMemo() // simulate a fresh process
	c0 := experiments.EngineCounters()
	second := collect(t, eng, c)
	c1 := experiments.EngineCounters()
	if d := c1.Sims - c0.Sims; d != 0 {
		t.Errorf("disk-cached resubmission simulated %d points, want 0", d)
	}
	if d := c1.DiskHits - c0.DiskHits; d == 0 {
		t.Error("disk-cached resubmission recorded no disk hits")
	}
	for i := range first[:len(first)-1] {
		if first[i] != second[i] {
			t.Errorf("disk-cached record %d differs:\n%s\n%s", i, first[i], second[i])
		}
	}
}

// TestCampaignReproducesFig4 is the acceptance check behind
// examples/campaign: Fig. 4 phrased as a campaign spec must render byte-
// identically to the registry experiment at the same scale.
func TestCampaignReproducesFig4(t *testing.T) {
	s := experiments.Quick()
	s.Refs = 1109
	s.PerCategory = 1
	ws := s.Workloads()
	pfs := []sim.PF{sim.PFBOP, sim.PFSMS, sim.PFSPP}

	mixes := make([]Mix, len(ws))
	for i, w := range ws {
		mixes[i] = Mix{w.Name}
	}
	spec := Campaign{
		Name: "fig4",
		Base: Point{Refs: s.Refs, Seed: s.Seed},
		Axes: Axes{
			Workloads: mixes,
			L2:        []string{"none", "bop", "sms", "spp"},
		},
	}

	var recs []PointRecord
	eng := Engine{Workers: 2}
	if _, err := eng.Run(context.Background(), spec, func(line json.RawMessage) error {
		var rec PointRecord
		if json.Unmarshal(line, &rec) == nil && rec.Type == "point" && !rec.Baseline {
			recs = append(recs, rec)
		}
		return nil
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(recs) != len(ws)*len(pfs) {
		t.Fatalf("non-baseline records = %d, want %d", len(recs), len(ws)*len(pfs))
	}

	// Fold the point stream into the registry's CategoryResult shape via the
	// shared helper (the same one examples/campaign renders with).
	res := CategoryResultFromPoints(ws, pfs, recs)

	const title = "Fig 4: BOP/SMS/SPP by category (1ch DDR4-2133)"
	var fromCampaign, fromRegistry bytes.Buffer
	experiments.FormatCategory(&fromCampaign, title, res)
	e, ok := experiments.ExperimentByID("fig4")
	if !ok {
		t.Fatal("fig4 not in registry")
	}
	e.Format(&fromRegistry, e.Run(s))
	if fromCampaign.String() != fromRegistry.String() {
		t.Errorf("campaign rendering differs from registry fig4:\n%s\n---\n%s",
			fromCampaign.String(), fromRegistry.String())
	}
}

// TestCampaignBaselineOutsideAxis: when the l2 axis does not include the
// baseline, hidden baseline jobs still give every point a speedup.
func TestCampaignBaselineOutsideAxis(t *testing.T) {
	c := Campaign{
		Base: Point{Refs: 557},
		Axes: Axes{Workloads: []Mix{{"mcf"}}, L2: []string{"spp", "bop"}},
	}
	lines := collect(t, Engine{Workers: 1}, c)
	var sum Summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.BaselinePoints != 0 || sum.Points != 2 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.GeomeanSpeedupPct == nil {
		t.Fatal("no aggregate speedup despite hidden baselines")
	}
	for _, line := range lines[1 : len(lines)-1] {
		var rec PointRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if len(rec.Speedup) != 1 {
			t.Errorf("point %d has no speedup: %s", rec.Index, line)
		}
	}
}

// TestCampaignMarginals: the summary's per-axis marginals cover exactly the
// swept axes (n >= 2) and every value label.
func TestCampaignMarginals(t *testing.T) {
	c := Campaign{
		Base: Point{Refs: 613},
		Axes: Axes{
			Workloads:    []Mix{{"mcf"}, {"tpcc"}},
			DRAMChannels: []int{1, 2},
			L2:           []string{"none", "spp"},
		},
	}
	lines := collect(t, Engine{Workers: 2}, c)
	var sum Summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatal(err)
	}
	wantAxes := map[string][]string{
		"workloads":     {"mcf", "tpcc"},
		"dram_channels": {"1", "2"},
		"l2":            {"spp"}, // baseline points carry no speedup
	}
	if len(sum.Marginals) != len(wantAxes) {
		t.Fatalf("marginal axes = %v", reflect.ValueOf(sum.Marginals).MapKeys())
	}
	for axis, labels := range wantAxes {
		got := sum.Marginals[axis]
		if len(got) != len(labels) {
			t.Errorf("marginals[%q] = %v, want labels %v", axis, got, labels)
			continue
		}
		for _, l := range labels {
			if _, ok := got[l]; !ok {
				t.Errorf("marginals[%q] missing %q: %v", axis, l, got)
			}
		}
	}
}

// TestCampaignStreamIdenticalWithBatchingDisabled is the scheduling-only
// proof for lockstep batching: the same campaign run with one run per
// RunJobs call, so no lockstep group can form, must produce a byte-identical
// NDJSON stream — batching may change only how points are executed, never
// what is emitted.
func TestCampaignStreamIdenticalWithBatchingDisabled(t *testing.T) {
	c := Campaign{
		Name: "batch-ab",
		Base: Point{Refs: 613}, // distinctive refs: runs unique to this test
		Axes: Axes{
			Workloads: []Mix{{"mcf"}, {"tpcc"}},
			Seeds:     []int64{5, 6},
			L2:        []string{"none", "spp", "bop"},
		},
	}
	batched := collect(t, Engine{Workers: 2, batch: 5}, c)
	experiments.ResetMemo() // force the serial leg to actually re-simulate
	before := experiments.EngineCounters()
	serial := collect(t, Engine{Workers: 2, batch: 1}, c)
	if d := experiments.EngineCounters().Batches - before.Batches; d != 0 {
		t.Fatalf("serial leg ran %d lockstep batches, want none", d)
	}
	if len(batched) != len(serial) {
		t.Fatalf("batched run emitted %d records, serial %d", len(batched), len(serial))
	}
	for i := range batched {
		a, b := batched[i], serial[i]
		if i == len(batched)-1 {
			a, b = stripSummaryTelemetry(t, a), stripSummaryTelemetry(t, b)
		}
		if a != b {
			t.Errorf("record %d differs between batched and serial scheduling:\n%s\n%s", i, a, b)
		}
	}
}
