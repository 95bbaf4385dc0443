// Package experiments regenerates every table and figure of the DSPatch
// paper's evaluation (see the "Experiment index" section of the repository
// README.md). Each Fig*/Table* function runs the needed simulations at the
// requested Scale and returns typed rows; Format* helpers render them as
// text tables that mirror the paper's layout.
//
// Simulations are scheduled on a shared concurrent engine (runner.go): jobs
// fan out across Scale.Parallel worker goroutines with deterministic result
// ordering, and every PFNone baseline is memoized per
// (workloads, DRAM, LLC, Refs, Seed) so figures that share a machine
// configuration simulate each baseline exactly once per process. Figures
// that compare prefetchers against that baseline build their runs with
// runPaired and fold per-category results with FoldCategories.
package experiments

import (
	"context"
	"math"

	"dspatch/internal/dram"
	"dspatch/internal/sim"
	"dspatch/internal/stats"
	"dspatch/internal/trace"
)

// Scale bounds experiment cost. Quick keeps `go test -bench=.` laptop-sized;
// Full reproduces the paper's whole roster (cmd/dspatchsim -full).
type Scale struct {
	Refs        int // memory references per workload run
	PerCategory int // workloads sampled per category (0 = all)
	MPMixes     int // multi-programmed mixes (Fig. 17/18)
	Seed        int64
	Parallel    int // simulation worker goroutines (0 = GOMAXPROCS)

	// cctx, when set via WithContext, cancels the scale's simulations.
	cctx context.Context
}

// Quick is the default bench scale.
func Quick() Scale { return Scale{Refs: 40_000, PerCategory: 2, MPMixes: 4, Seed: 1} }

// Full is the paper-scale configuration.
func Full() Scale { return Scale{Refs: 200_000, PerCategory: 0, MPMixes: 42, Seed: 1} }

// WithParallel returns a copy of s running n simulation workers (n <= 0
// restores the GOMAXPROCS default). Results are bit-identical at any n.
func (s Scale) WithParallel(n int) Scale {
	s.Parallel = n
	return s
}

// WithContext returns a copy of s whose simulations abort when ctx fires —
// the hook the dspatchd service uses for per-job cancellation. A canceled
// experiment's return value is meaningless (aborted runs contribute zero
// metrics that the aggregation drops); callers that set a context must check
// ctx.Err() before using the result. Completed runs are never affected:
// results are bit-identical with or without a context.
func (s Scale) WithContext(ctx context.Context) Scale {
	s.cctx = ctx
	return s
}

// context returns the scale's cancellation context, Background if unset.
func (s Scale) context() context.Context {
	if s.cctx != nil {
		return s.cctx
	}
	return context.Background()
}

// Workloads returns the evaluation roster at this scale — exported so
// campaign builders (examples/campaign, the sweep tests) can sweep exactly
// the workload set a Fig*/Table* function would run.
func (s Scale) Workloads() []trace.Workload { return s.workloads() }

// workloads returns the evaluation roster at this scale, category-balanced.
func (s Scale) workloads() []trace.Workload {
	if s.PerCategory <= 0 {
		return trace.Workloads()
	}
	var out []trace.Workload
	for _, cat := range trace.Categories {
		ws := trace.ByCategory(cat)
		n := s.PerCategory
		if n > len(ws) {
			n = len(ws)
		}
		// Prefer memory-intensive members: they carry the paper's signal.
		taken := 0
		for _, w := range ws {
			if taken == n {
				break
			}
			if w.MemIntensive {
				out = append(out, w)
				taken++
			}
		}
		for _, w := range ws {
			if taken == n {
				break
			}
			if !w.MemIntensive {
				out = append(out, w)
				taken++
			}
		}
	}
	return out
}

// memIntensive returns the high-MPKI subset at this scale.
func (s Scale) memIntensive() []trace.Workload {
	ws := trace.MemIntensive()
	if s.PerCategory <= 0 {
		return ws
	}
	// Balanced sample: s.PerCategory per category where available.
	byCat := map[trace.Category]int{}
	var out []trace.Workload
	for _, w := range ws {
		if byCat[w.Category] < s.PerCategory {
			byCat[w.Category]++
			out = append(out, w)
		}
	}
	return out
}

// stOptions is the paper's single-thread machine at this scale.
func (s Scale) stOptions() sim.Options {
	o := sim.DefaultST()
	o.Refs = s.Refs
	o.Seed = s.Seed
	return o
}

// mpOptions is the paper's 4-core machine at this scale: each of the four
// lanes runs half the single-thread reference budget.
func (s Scale) mpOptions() sim.Options {
	o := sim.DefaultMP()
	o.Refs = s.Refs / 2
	o.Seed = s.Seed
	return o
}

// singles returns one single-thread cell per workload under opt.
func singles(ws []trace.Workload, opt sim.Options) []Job {
	cells := make([]Job, len(ws))
	for i, w := range ws {
		cells[i] = SingleJob(w, opt)
	}
	return cells
}

// pairedRun is one cell's outcome: its no-L2-prefetcher baseline and one
// result per prefetcher, in the order runPaired was given them.
type pairedRun struct {
	base sim.Result
	with []sim.Result
}

// runPaired is the measurement behind nearly every figure: each cell runs
// once with no L2 prefetcher and once per pfs entry, with everything but L2
// taken from the cell's Opt. Jobs are submitted per cell, baseline first,
// as one engine batch, so cells sharing a trace run in lockstep and a
// baseline another figure already ran is a memo hit.
func (s Scale) runPaired(cells []Job, pfs []sim.PF) []pairedRun {
	l2s := append([]sim.PF{sim.PFNone}, pfs...)
	jobs := make([]Job, 0, len(cells)*len(l2s))
	for _, c := range cells {
		for _, pf := range l2s {
			j := c
			j.Opt.L2 = pf
			jobs = append(jobs, j)
		}
	}
	results := s.runAll(jobs)
	runs := make([]pairedRun, len(cells))
	for i := range runs {
		rs := results[i*len(l2s) : (i+1)*len(l2s)]
		runs[i] = pairedRun{base: rs[0], with: rs[1:]}
	}
	return runs
}

// stRatio is prefetcher i's single-thread speedup: the lane-0 IPC ratio.
func stRatio(r pairedRun, i int) float64 { return sim.Speedup(r.base, r.with[i])[0] }

// mixRatio is prefetcher i's speedup on a multi-core mix: the geomean of the
// per-lane IPC ratios. On one lane it is exp(log x), which need not equal
// stRatio bit for bit, so the two are not interchangeable.
func mixRatio(r pairedRun, i int) float64 { return stats.Geomean(sim.Speedup(r.base, r.with[i])) }

// column gathers prefetcher i's speedup ratio on every run, in run order.
func column(runs []pairedRun, i int, ratio func(pairedRun, int) float64) []float64 {
	out := make([]float64, len(runs))
	for k, r := range runs {
		out[k] = ratio(r, i)
	}
	return out
}

// CategoryResult holds per-category performance deltas for a prefetcher set
// (the layout of Figs. 4, 12, 14, 17).
type CategoryResult struct {
	Prefetchers []sim.PF
	Categories  []trace.Category
	// Delta[pf][cat] is the geomean performance delta (%) of that category.
	Delta [][]float64
	// Geomean[pf] aggregates across every workload run.
	Geomean []float64
	// Dropped counts degenerate runs (zero/non-finite speedup ratios)
	// excluded from the aggregates.
	Dropped int
}

// FoldCategories aggregates speedup ratios into a CategoryResult:
// ratios[i][k] is pfs[i]'s ratio on cell k, whose category is cats[k]. A
// category's delta is the geomean of its cells (NaN when it has none); the
// overall geomean drops degenerate ratios and counts them in Dropped. Ratios
// pool in cell order, so the same ratios fold to a bit-identical result —
// sweep.CategoryResultFromPoints relies on that to reproduce the figures.
func FoldCategories(pfs []sim.PF, cats []trace.Category, ratios [][]float64) CategoryResult {
	res := CategoryResult{Prefetchers: pfs, Categories: trace.Categories}
	for i := range pfs {
		perCat := map[trace.Category][]float64{}
		for k, r := range ratios[i] {
			perCat[cats[k]] = append(perCat[cats[k]], r)
		}
		var row []float64
		for _, cat := range res.Categories {
			row = append(row, deltaOrNaN(perCat[cat]))
		}
		res.Delta = append(res.Delta, row)
		kept, dropped := stats.FiniteRatios(ratios[i])
		res.Dropped += dropped
		res.Geomean = append(res.Geomean, stats.GeomeanSpeedupPct(kept))
	}
	return res
}

// categorySweep pairs every cell against pfs and folds the ratios by the
// category of each cell's first workload; ratio is the caller's lane
// reduction.
func categorySweep(s Scale, cells []Job, pfs []sim.PF, ratio func(pairedRun, int) float64) CategoryResult {
	runs := s.runPaired(cells, pfs)
	cats := make([]trace.Category, len(cells))
	for k, c := range cells {
		cats[k] = c.Workloads[0].Category
	}
	ratios := make([][]float64, len(pfs))
	for i := range pfs {
		ratios[i] = column(runs, i, ratio)
	}
	return FoldCategories(pfs, cats, ratios)
}

// deltaOrNaN aggregates speedup ratios, or returns NaN when the category
// had no runs at this scale (rendered as "n/a").
func deltaOrNaN(ratios []float64) float64 {
	if len(ratios) == 0 {
		return math.NaN()
	}
	return stats.GeomeanSpeedupPct(ratios)
}

// BWPoint is one memory configuration of the bandwidth-scaling figures.
type BWPoint struct {
	Name string
	Cfg  dram.Config
}

// bwPoints returns the six configurations of Figs. 1, 6 and 15: one and two
// channels of DDR4-1600/2133/2400.
func bwPoints() []BWPoint {
	var out []BWPoint
	for _, ch := range []int{1, 2} {
		for _, mt := range []int{1600, 2133, 2400} {
			cfg := dram.DDR4(ch, mt)
			out = append(out, BWPoint{Name: cfg.String(), Cfg: cfg})
		}
	}
	return out
}

// ScalingResult holds performance deltas across DRAM bandwidth points
// (Figs. 1, 6, 15).
type ScalingResult struct {
	Points      []BWPoint
	Prefetchers []sim.PF
	// Delta[pf][point] is the geomean performance delta (%).
	Delta [][]float64
	// Dropped counts degenerate runs excluded from the aggregates.
	Dropped int
}

// bandwidthSweep runs the workload set across all six bandwidth points; the
// whole point × workload × prefetcher grid is one parallel batch.
func bandwidthSweep(ws []trace.Workload, s Scale, pfs []sim.PF) ScalingResult {
	res := ScalingResult{Points: bwPoints(), Prefetchers: pfs}
	res.Delta = make([][]float64, len(pfs))
	var cells []Job
	for _, pt := range res.Points {
		opt := s.stOptions()
		opt.DRAM = pt.Cfg
		cells = append(cells, singles(ws, opt)...)
	}
	runs := s.runPaired(cells, pfs)
	for p := range res.Points {
		for i := range pfs {
			kept, dropped := stats.FiniteRatios(column(runs[p*len(ws):(p+1)*len(ws)], i, stRatio))
			res.Dropped += dropped
			res.Delta[i] = append(res.Delta[i], stats.GeomeanSpeedupPct(kept))
		}
	}
	return res
}
