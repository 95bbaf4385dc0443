package core

import (
	"math/rand"
	"testing"

	"dspatch/internal/bitpattern"
	"dspatch/internal/memaddr"
	"dspatch/internal/prefetch"
)

func acc(pc, line uint64) prefetch.Access {
	return prefetch.Access{PC: memaddr.PC(pc), Line: memaddr.Line(line)}
}

var lowBW = prefetch.StaticContext{Util: bitpattern.Q0}
var midBW = prefetch.StaticContext{Util: bitpattern.Q2}
var highBW = prefetch.StaticContext{Util: bitpattern.Q3}

// visitPage touches page p at the given line offsets under trigger PC pc,
// returning any prefetches issued by the trigger access.
func visitPage(d *DSPatch, ctx prefetch.Context, p uint64, pc uint64, offsets []int) []prefetch.Request {
	var first []prefetch.Request
	for i, off := range offsets {
		out := d.Train(acc(pc, p*memaddr.LinesPage+uint64(off)), ctx, nil)
		if i == 0 {
			first = out
		}
	}
	return first
}

// trainPattern teaches DSPatch one footprint under one PC across many pages.
func trainPattern(d *DSPatch, ctx prefetch.Context, pages int, pc uint64, offsets []int) {
	for p := 0; p < pages; p++ {
		visitPage(d, ctx, uint64(p), pc, offsets)
	}
	d.Flush(ctx)
}

func TestDefaultConfigMatchesPaperStorage(t *testing.T) {
	d := New(DefaultConfig())
	bits := d.StorageBits()
	// Table 1: PB 64×(36+64+2×14)=8192 plus SPT 256×76=19456 → 27648 bits
	// ≈ 3.4KB with the listed fields (the paper quotes 3.6KB including
	// bookkeeping bits).
	kb := float64(bits) / 8192
	if kb < 3.0 || kb > 3.7 {
		t.Errorf("storage = %.2fKB, want ≈3.4–3.6KB", kb)
	}
	spt := 256 * 76
	if got := bits - spt; got != 64*(36+64+28) {
		t.Errorf("PB bits = %d, want %d", got, 64*(36+64+28))
	}
}

func TestLearnsAndReplaysFootprint(t *testing.T) {
	d := New(DefaultConfig())
	// Footprint within segment 0; trigger at 4.
	foot := []int{4, 6, 10, 20}
	trainPattern(d, lowBW, 10, 0x400, foot)
	out := visitPage(d, lowBW, 500, 0x400, []int{4})
	if len(out) == 0 {
		t.Fatal("trained trigger issued no prefetches")
	}
	want := map[memaddr.Line]bool{}
	for _, off := range foot[1:] {
		want[memaddr.Line(500*memaddr.LinesPage+uint64(off))] = true
	}
	covered := 0
	for _, r := range out {
		if want[r.Line] {
			covered++
		}
	}
	if covered < len(foot)-1 {
		t.Errorf("replay covered %d of %d footprint lines: %v", covered, len(foot)-1, out)
	}
	// 128B compression may add the paired neighbours (5, 7, 11, 21) but
	// nothing else.
	allowed := map[int]bool{}
	for _, off := range foot {
		allowed[off^1] = true
		allowed[off] = true
	}
	for _, r := range out {
		if !allowed[r.Line.PageOffset()] {
			t.Errorf("prefetch at unexpected offset %d", r.Line.PageOffset())
		}
	}
}

func TestAnchoringHandlesDifferentTriggerAlignment(t *testing.T) {
	// The same relative footprint starting at different page offsets should
	// still be predicted, because patterns are anchored to the trigger.
	d := New(DefaultConfig())
	// Note: with 128B compression, relative offsets survive anchoring
	// exactly when the trigger parity matches; use even offsets.
	rel := []int{0, 2, 6, 12}
	for p := 0; p < 12; p++ {
		base := (p * 2) % 16 // even trigger offsets 0..14
		offsets := make([]int, len(rel))
		for i, r := range rel {
			offsets[i] = base + r
		}
		visitPage(d, lowBW, uint64(p), 0xBEEF, offsets)
	}
	d.Flush(lowBW)
	out := visitPage(d, lowBW, 999, 0xBEEF, []int{8})
	if len(out) == 0 {
		t.Fatal("anchored replay issued no prefetches")
	}
	want := map[int]bool{}
	for _, r := range rel[1:] {
		want[8+r] = true
	}
	found := 0
	for _, r := range out {
		if want[r.Line.PageOffset()] {
			found++
		}
	}
	if found < len(rel)-1 {
		t.Errorf("anchored replay found %d of %d relative offsets: %v", found, len(rel)-1, out)
	}
}

func TestReorderedStreamsShareOnePattern(t *testing.T) {
	// Paper Fig. 2: temporally shuffled visits of the same footprint must
	// train the same anchored pattern — predictions keep working.
	d := New(DefaultConfig())
	perms := [][]int{
		{4, 8, 14, 22},
		{4, 14, 8, 22},
		{4, 22, 14, 8},
		{4, 8, 22, 14},
	}
	for p := 0; p < 12; p++ {
		visitPage(d, lowBW, uint64(p), 0x77, perms[p%len(perms)])
	}
	d.Flush(lowBW)
	out := visitPage(d, lowBW, 777, 0x77, []int{4})
	covered := map[int]bool{}
	for _, r := range out {
		covered[r.Line.PageOffset()] = true
	}
	for _, off := range []int{8, 14, 22} {
		if !covered[off] {
			t.Errorf("offset %d not predicted despite reordered training", off)
		}
	}
}

func TestCovPGrowsByOR(t *testing.T) {
	d := New(DefaultConfig())
	// Two alternating footprints with one trigger PC: CovP should become
	// their union.
	a := []int{0, 2, 4}
	b := []int{0, 8, 10}
	for p := 0; p < 6; p++ {
		if p%2 == 0 {
			visitPage(d, lowBW, uint64(p), 0x5, a)
		} else {
			visitPage(d, lowBW, uint64(p), 0x5, b)
		}
	}
	d.Flush(lowBW)
	out := visitPage(d, lowBW, 321, 0x5, []int{0})
	covered := map[int]bool{}
	for _, r := range out {
		covered[r.Line.PageOffset()] = true
	}
	for _, off := range []int{2, 4, 8, 10} {
		if !covered[off] {
			t.Errorf("CovP union missing offset %d (covered: %v)", off, covered)
		}
	}
}

func TestAccPFiltersThroughCovP(t *testing.T) {
	// AccP is replaced by program & CovP on every update (§3.6), so after
	// alternating footprints it equals the most recent generation's
	// footprint filtered through CovP — a strict subset of what CovP
	// predicts, never lines outside the last footprint's 128B pairs.
	d := New(DefaultConfig())
	a := []int{0, 2, 4, 8}
	b := []int{0, 2, 12, 14}
	for p := 0; p < 20; p++ {
		if p%2 == 0 {
			visitPage(d, lowBW, uint64(p), 0x6, a)
		} else {
			visitPage(d, lowBW, uint64(p), 0x6, b)
		}
	}
	d.Flush(lowBW) // last generation trained is b (p=19)
	out := visitPage(d, highBW, 654, 0x6, []int{0})
	if len(out) == 0 {
		t.Fatal("expected AccP prediction at Q3")
	}
	lastGen := map[int]bool{}
	for _, off := range b {
		lastGen[off] = true
		lastGen[off^1] = true // 128B compression pairs
	}
	for _, r := range out {
		if !lastGen[r.Line.PageOffset()] {
			t.Errorf("AccP predicted offset %d outside the last generation's footprint", r.Line.PageOffset())
		}
	}
}

func TestSelectionFollowsBandwidth(t *testing.T) {
	mk := func() *DSPatch {
		d := New(DefaultConfig())
		a := []int{0, 2, 4, 8}
		b := []int{0, 2, 12, 14}
		for p := 0; p < 20; p++ {
			if p%2 == 0 {
				visitPage(d, lowBW, uint64(p), 0x9, a)
			} else {
				visitPage(d, lowBW, uint64(p), 0x9, b)
			}
		}
		d.Flush(lowBW)
		return d
	}
	low := len(visitPage(mk(), lowBW, 1000, 0x9, []int{0}))
	high := len(visitPage(mk(), highBW, 1000, 0x9, []int{0}))
	if high >= low {
		t.Errorf("high-BW prediction (%d) should be narrower than low-BW (%d)", high, low)
	}
	if high == 0 {
		t.Error("high-BW with good AccP should still prefetch")
	}
}

func TestHighBWThrottlesWhenAccPBad(t *testing.T) {
	d := New(DefaultConfig())
	// Alternate between two large, nearly disjoint footprints. CovP becomes
	// their union (accuracy ~5/9, coverage 100%: no resets), while AccP
	// tracks the previous generation's footprint — which the next generation
	// contradicts (1 of 5 bits recur < 50%), so MeasureAccP saturates.
	foots := [][]int{{0, 2, 4, 8, 10}, {0, 16, 18, 24, 26}}
	for p := 0; p < 40; p++ {
		visitPage(d, lowBW, uint64(p), 0xA, foots[p%len(foots)])
	}
	d.Flush(lowBW)
	out := visitPage(d, highBW, 2000, 0xA, []int{0})
	if len(out) != 0 {
		t.Errorf("saturated MeasureAccP at Q3 should suppress prefetching, got %d", len(out))
	}
	if d.Stats().PredictionsNone == 0 {
		t.Error("expected PredictionsNone to be counted")
	}
}

func TestAccPSelfHealsToTriggerOnly(t *testing.T) {
	// With fully disjoint rotating footprints (sharing only the trigger),
	// AccP degenerates to the trigger's own 128B pair: a tiny but accurate
	// prediction that keeps MeasureAccP unsaturated. At Q3 DSPatch then
	// still prefetches — exactly one line (the trigger's pair).
	d := New(DefaultConfig())
	foots := [][]int{{0, 2, 4}, {0, 10, 12}, {0, 18, 20}, {0, 26, 28}}
	for p := 0; p < 40; p++ {
		visitPage(d, lowBW, uint64(p), 0xA1, foots[p%len(foots)])
	}
	d.Flush(lowBW)
	out := visitPage(d, highBW, 2100, 0xA1, []int{0})
	if len(out) != 1 {
		t.Fatalf("degenerate AccP should predict exactly the trigger pair, got %d", len(out))
	}
	if out[0].Line.PageOffset() != 1 {
		t.Errorf("predicted offset %d, want 1 (the trigger's 128B pair)", out[0].Line.PageOffset())
	}
}

func TestLowPriorityFillWhenCovPUntrusted(t *testing.T) {
	d := New(DefaultConfig())
	// Three disjoint small footprints rotating: CovP grows to their union
	// (coverage stays 100% → no relearn at low BW) but its accuracy is 3/7
	// < 50% every generation, so MeasureCovP saturates. Below 50% bandwidth
	// utilization DSPatch then fills its CovP prefetches at low priority.
	foots := [][]int{{0, 2, 4}, {0, 16, 18}, {0, 24, 26}}
	for p := 0; p < 30; p++ {
		visitPage(d, lowBW, uint64(p), 0xB, foots[p%len(foots)])
	}
	d.Flush(lowBW)
	out := visitPage(d, lowBW, 3000, 0xB, []int{0})
	if len(out) == 0 {
		t.Fatal("expected CovP prediction")
	}
	for _, r := range out {
		if !r.LowPriority {
			t.Errorf("prefetch %d should be low priority with untrusted CovP", r.Line)
		}
	}
}

func TestDualTriggerSecondSegment(t *testing.T) {
	d := New(DefaultConfig())
	// Train footprints that live in segment 1 with trigger offset 36.
	foot := []int{36, 38, 42, 50}
	trainPattern(d, lowBW, 10, 0xC, foot)
	// Fresh page, first touch lands directly in segment 1.
	out := visitPage(d, lowBW, 4000, 0xC, []int{36})
	if len(out) == 0 {
		t.Fatal("segment-1 trigger issued no prefetches")
	}
	covered := map[int]bool{}
	for _, r := range out {
		covered[r.Line.PageOffset()] = true
	}
	for _, off := range []int{38, 42, 50} {
		if !covered[off] {
			t.Errorf("segment-1 replay missing offset %d", off)
		}
	}
}

func TestSecondTriggerPredictsOnlyNearHalf(t *testing.T) {
	d := New(DefaultConfig())
	// Full-page footprint triggered in segment 1 at 40; the far half (which
	// wraps into segment 0) must not be predicted by a segment-1 trigger.
	foot := []int{40, 44, 48, 4, 8} // trigger 40; 4 and 8 are ~28 lines away (far half)
	trainPattern(d, lowBW, 10, 0xD, foot)
	out := visitPage(d, lowBW, 5000, 0xD, []int{40})
	for _, r := range out {
		off := r.Line.PageOffset()
		rel := (off - 40 + memaddr.LinesPage) % memaddr.LinesPage
		if rel >= memaddr.LinesSeg {
			t.Errorf("segment-1 trigger predicted far-half offset %d (rel %d)", off, rel)
		}
	}
}

func TestSingleTriggerAblation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DualTrigger = false
	d := New(cfg)
	foot := []int{36, 38, 42, 50}
	trainPattern(d, lowBW, 10, 0xE, foot)
	out := visitPage(d, lowBW, 6000, 0xE, []int{36})
	if len(out) != 0 {
		t.Errorf("single-trigger mode should not trigger on segment 1, got %d", len(out))
	}
}

func TestUncompressedMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Compress = false
	d := New(cfg)
	foot := []int{4, 7, 13} // odd neighbours stay distinct without compression
	trainPattern(d, lowBW, 10, 0xF, foot)
	out := visitPage(d, lowBW, 7000, 0xF, []int{4})
	got := map[int]bool{}
	for _, r := range out {
		got[r.Line.PageOffset()] = true
	}
	if !got[7] || !got[13] {
		t.Fatalf("uncompressed replay missing exact offsets: %v", got)
	}
	if got[5] || got[6] || got[12] {
		t.Errorf("uncompressed mode predicted neighbour lines: %v", got)
	}
	if d.StorageBits() <= New(DefaultConfig()).StorageBits() {
		t.Error("uncompressed storage should exceed compressed")
	}
}

func TestAblationModes(t *testing.T) {
	train := func(d *DSPatch) {
		foots := [][]int{{0, 2, 4, 8}, {0, 2, 12, 14}}
		for p := 0; p < 20; p++ {
			visitPage(d, lowBW, uint64(p), 0x10, foots[p%2])
		}
		d.Flush(lowBW)
	}
	always := New(Config{PBEntries: 64, SPTEntries: 256, Compress: true, DualTrigger: true,
		OrCountBits: 2, MeasureBits: 2, AccThr: bitpattern.Q2, CovThr: bitpattern.Q2, Mode: ModeAlwaysCovP})
	train(always)
	if out := visitPage(always, highBW, 900, 0x10, []int{0}); len(out) == 0 {
		t.Error("AlwaysCovP must predict even at Q3")
	}
	mod := New(Config{PBEntries: 64, SPTEntries: 256, Compress: true, DualTrigger: true,
		OrCountBits: 2, MeasureBits: 2, AccThr: bitpattern.Q2, CovThr: bitpattern.Q2, Mode: ModeModCovP})
	train(mod)
	if out := visitPage(mod, highBW, 900, 0x10, []int{0}); len(out) != 0 {
		t.Error("ModCovP must throttle at Q3")
	}
	if out := visitPage(mod, lowBW, 901, 0x10, []int{0}); len(out) == 0 {
		t.Error("ModCovP must predict below Q3")
	}
}

func TestModeNames(t *testing.T) {
	if New(DefaultConfig()).Name() != "dspatch" {
		t.Error("wrong full-mode name")
	}
	cfg := DefaultConfig()
	cfg.Mode = ModeAlwaysCovP
	if New(cfg).Name() != "dspatch-AlwaysCovP" {
		t.Error("wrong AlwaysCovP name")
	}
	cfg.Mode = ModeModCovP
	if New(cfg).Name() != "dspatch-ModCovP" {
		t.Error("wrong ModCovP name")
	}
}

func TestCompressionHistogram(t *testing.T) {
	d := New(DefaultConfig())
	// Page with perfectly pairable lines: zero compression error (bucket 0).
	visitPage(d, lowBW, 1, 0x11, []int{0, 1, 2, 3})
	// Page with isolated lines: 50% error (bucket 5).
	visitPage(d, lowBW, 2, 0x11, []int{0, 4, 8, 12})
	d.Flush(lowBW)
	h := d.Stats().CompressionHist
	if h[0] != 1 {
		t.Errorf("exact bucket = %d, want 1 (hist %v)", h[0], h)
	}
	if h[5] != 1 {
		t.Errorf("50%% bucket = %d, want 1 (hist %v)", h[5], h)
	}
}

func TestPBCapacityEviction(t *testing.T) {
	d := New(DefaultConfig())
	// Touch 100 distinct pages: only 64 PB entries → 36 evictions learn.
	for p := 0; p < 100; p++ {
		visitPage(d, lowBW, uint64(p), 0x12, []int{0, 2})
	}
	if ev := d.Stats().PageEvictions; ev != 100-64 {
		t.Errorf("PageEvictions = %d, want 36", ev)
	}
}

func TestTriggerCountsOncePerSegment(t *testing.T) {
	d := New(DefaultConfig())
	visitPage(d, lowBW, 1, 0x13, []int{0, 1, 2, 33, 34})
	if got := d.Stats().Triggers; got != 2 {
		t.Errorf("Triggers = %d, want 2 (one per segment)", got)
	}
}

func TestStatsPredictionsAccounted(t *testing.T) {
	d := New(DefaultConfig())
	trainPattern(d, lowBW, 10, 0x14, []int{0, 2, 4})
	visitPage(d, lowBW, 800, 0x14, []int{0})
	s := d.Stats()
	if s.PredictionsCovP == 0 {
		t.Error("expected CovP predictions at low BW")
	}
}

func TestBadSPTGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.SPTEntries = 100
	New(cfg)
}

// pbScan is the linear-scan oracle for lookupPB and the victim choice: one
// pass over the PB fills slots[page] with the slot of the valid entry
// tracking each page of the working set (-1 for untracked pages) and
// returns the valid entry touched least recently, the min-stamp victim the
// recency list replaces.
func pbScan(d *DSPatch, slots []int) (oldest int) {
	for p := range slots {
		slots[p] = -1
	}
	oldest, stamp := -1, ^uint64(0)
	for i := range d.pb {
		if !d.pb[i].valid {
			continue
		}
		slots[d.pb[i].page] = i
		if d.pb[i].used < stamp {
			oldest, stamp = i, d.pb[i].used
		}
	}
	return oldest
}

// TestPBIndexMatchesLinearScan trains DSPatch on a page-thrashing sequence —
// random jumps, same-page streams and page walks over more pages than the PB
// holds, with periodic flushes that restart the filling phase — and after
// every Train checks the hashed lookup against a linear scan of the PB for
// every page, and (once the PB is full) the recency-list tail against the
// min-stamp scan.
func TestPBIndexMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := New(DefaultConfig())
	const pages = 96 // 1.5x the 64-entry PB: every phase evicts
	want := make([]int, pages)
	page := uint64(0)
	for step := 0; step < 20_000; step++ {
		switch rng.Intn(3) {
		case 0:
			page = uint64(rng.Intn(pages))
		case 1:
			page = (page + 1) % pages
		}
		d.Train(acc(uint64(rng.Intn(8)), page*memaddr.LinesPage+uint64(rng.Intn(memaddr.LinesPage))), lowBW, nil)
		if step%5_000 == 4_999 {
			d.Flush(lowBW)
		}
		oldest := pbScan(d, want)
		for p, w := range want {
			if got := d.lookupPB(memaddr.Page(p)); got != w {
				t.Fatalf("step %d: lookupPB(%d) = %d, linear scan %d", step, p, got, w)
			}
		}
		if int(d.pbFree) == len(d.pb) && int(d.pbTail) != oldest {
			t.Fatalf("step %d: pbTail = %d, min-used entry %d", step, d.pbTail, oldest)
		}
	}
}
