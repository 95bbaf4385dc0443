package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"dspatch/internal/experiments"
	"dspatch/internal/prefstats"
	"dspatch/internal/sim"
	"dspatch/internal/stats"
)

// Header is the first NDJSON record of a campaign stream: the resolved shape
// of the sweep. It is a pure function of the spec.
type Header struct {
	Type       string `json:"type"` // "campaign"
	Name       string `json:"name,omitempty"`
	Strategy   string `json:"strategy"`
	Grid       int64  `json:"grid"`   // full cross-product size
	Points     int    `json:"points"` // points this campaign will emit
	BaselineL2 string `json:"baseline_l2"`
}

// Metrics is the per-point slice of sim.Result a campaign reports (port
// counters and pollution fractions are not part of the stream).
type Metrics struct {
	IPC              []float64 `json:"ipc"`
	Cycles           uint64    `json:"cycles"`
	Coverage         float64   `json:"coverage"`
	MispredRate      float64   `json:"mispred_rate"`
	Accuracy         float64   `json:"accuracy"`
	AvgBandwidthGBps float64   `json:"avg_bw_gbps"`
	PeakBandwidth    float64   `json:"peak_bw_gbps"`
}

func metricsOf(r sim.Result) Metrics {
	return Metrics{
		IPC:              r.IPC,
		Cycles:           r.Cycles,
		Coverage:         r.Coverage,
		MispredRate:      r.MispredRate,
		Accuracy:         r.Accuracy,
		AvgBandwidthGBps: r.AvgBandwidthGBps,
		PeakBandwidth:    r.PeakBandwidth,
	}
}

// PointRecord is one completed point. Records are emitted in canonical index
// order and are byte-identical across runs of the same spec: they carry no
// timing or cache provenance.
type PointRecord struct {
	Type  string `json:"type"` // "point"
	Index int64  `json:"index"`
	Point Point  `json:"point"`
	// Metrics of this point's own run.
	Metrics Metrics `json:"metrics"`
	// Speedup holds per-lane IPC ratios against the baseline partner (this
	// point with l2 = baseline_l2); absent on baseline points.
	Speedup []float64 `json:"speedup,omitempty"`
	// Baseline marks points whose own l2 is the designated baseline.
	Baseline bool `json:"baseline,omitempty"`
	// Prefetchers carries the point's per-prefetcher telemetry snapshot;
	// present only when the point set collect_stats. The prefstats schema
	// marshals deterministically, so stats-bearing streams stay
	// byte-identical across runs.
	Prefetchers []sim.PrefetcherStats `json:"prefetchers,omitempty"`
}

// EngineDelta is the experiment-engine work this campaign run caused —
// the resumability ledger: a fully-cached resubmission shows Sims == 0.
type EngineDelta struct {
	Sims     uint64 `json:"sims"`
	MemoHits uint64 `json:"memo_hits"`
	DiskHits uint64 `json:"disk_hits"`
}

// DroppedPoint records a point a fleet run abandoned after exhausting its
// dispatch retries: the point's record is missing from the stream, and this
// entry says why. Local runs never drop points.
type DroppedPoint struct {
	Index  int64  `json:"index"`
	Point  Point  `json:"point"`
	Reason string `json:"reason"`
}

// FleetSummary is coordinator telemetry attached to a fleet-executed
// campaign's Summary. Like Engine and ElapsedMS it is not deterministic:
// two runs of one spec through different failure weather report different
// dispatch counts while emitting byte-identical point records.
type FleetSummary struct {
	Workers        int    `json:"workers"`
	Dispatches     uint64 `json:"dispatches"`
	Redispatches   uint64 `json:"redispatches"`
	LeasesExpired  uint64 `json:"leases_expired"`
	ShedRejections uint64 `json:"shed_rejections"`
	WorkersEjected uint64 `json:"workers_ejected"`
	StoreHits      uint64 `json:"store_hits"`
}

// Summary is the final NDJSON record: cross-point aggregation plus run
// telemetry. Everything except DroppedPoints, Fleet, Engine and ElapsedMS
// is deterministic.
type Summary struct {
	Type           string `json:"type"` // "summary"
	Name           string `json:"name,omitempty"`
	Points         int    `json:"points"`
	BaselinePoints int    `json:"baseline_points"`
	// Dropped counts degenerate lane ratios (zero/non-finite speedups)
	// excluded from every aggregate below.
	Dropped int `json:"dropped"`
	// GeomeanSpeedupPct aggregates every non-baseline lane ratio; absent
	// when the campaign had none (all-baseline sweeps).
	GeomeanSpeedupPct *float64 `json:"geomean_speedup_pct,omitempty"`
	// Marginals[axis][value] is the geomean speedup (%) of the non-baseline
	// points carrying that axis value — one marginal per swept axis.
	Marginals map[string]map[string]float64 `json:"marginals,omitempty"`
	// DroppedPoints lists points a fleet run abandoned, with reasons, in
	// index order; absent on local runs and clean fleet runs. Every point
	// record missing from the stream is accounted for here — nothing is
	// lost silently.
	DroppedPoints []DroppedPoint `json:"dropped_points,omitempty"`
	// Fleet is coordinator telemetry; absent on local runs.
	Fleet *FleetSummary `json:"fleet,omitempty"`
	// Prefetchers aggregates per-prefetcher telemetry across every
	// stats-collecting point (merged by model name, in flush order — index
	// order — so the aggregate is deterministic); absent when no point set
	// collect_stats.
	Prefetchers []sim.PrefetcherStats `json:"prefetchers,omitempty"`
	// Engine and ElapsedMS are telemetry, not results: they differ between a
	// cold run and a resumed one.
	Engine    EngineDelta `json:"engine"`
	ElapsedMS int64       `json:"elapsed_ms"`
}

// Recorder turns completed point results into the campaign's canonical
// NDJSON stream. It is the single authority on stream bytes: Engine.Run
// feeds it every result in whatever order its Backend — in-process or a
// worker fleet — happens to finish them, and the Recorder
// buffers, aggregates and emits strictly in canonical index order — which
// is why a campaign run through a flaky fleet is byte-identical to a local
// run. Methods must be called from one goroutine at a time.
type Recorder struct {
	c    Campaign
	emit func(json.RawMessage) error
	idxs []int64
	pts  []Point
	bl   string
	axes []axis

	pending   []*PointRecord
	droppedAt []string // non-empty: drop reason; flush skips the position
	flushed   int

	allRatios      []float64
	marginPools    map[string]map[string][]float64
	baselinePoints int
	droppedPoints  []DroppedPoint
	prefStats      []sim.PrefetcherStats

	start time.Time
	c0    experiments.Counters
}

// NewRecorder validates and expands c, emits the campaign header, and
// returns a Recorder ready to receive completions for positions
// 0..Len()-1.
func NewRecorder(c Campaign, emit func(json.RawMessage) error) (*Recorder, error) {
	start := time.Now()
	c0 := experiments.EngineCounters()
	idxs, pts, err := c.Expand()
	if err != nil {
		return nil, err
	}
	r := &Recorder{
		c:           c,
		emit:        emit,
		idxs:        idxs,
		pts:         pts,
		bl:          c.baselineL2(),
		axes:        c.axes(),
		pending:     make([]*PointRecord, len(pts)),
		droppedAt:   make([]string, len(pts)),
		marginPools: map[string]map[string][]float64{},
		start:       start,
		c0:          c0,
	}
	if err := emitRec(emit, Header{
		Type:       "campaign",
		Name:       c.Name,
		Strategy:   strategyName(c.Sample.Strategy),
		Grid:       c.GridSize(),
		Points:     len(pts),
		BaselineL2: r.bl,
	}); err != nil {
		return nil, err
	}
	return r, nil
}

// Len is the number of points the campaign will emit.
func (r *Recorder) Len() int { return len(r.pts) }

// Pair returns position pos's own point and, for non-baseline points, the
// baseline partner whose result its speedup is computed against.
func (r *Recorder) Pair(pos int) (self, base Point, hasBase bool) {
	self = r.pts[pos]
	if self.L2 == r.bl {
		return self, Point{}, false
	}
	base = self
	base.L2 = r.bl
	return self, base, true
}

// Resolved reports whether position pos already has a terminal outcome —
// emitted, buffered for emission, or dropped. Journal replay and late fleet
// events both lean on this: the first resolution of a position wins, and
// every later Complete or Drop for it is a no-op.
func (r *Recorder) Resolved(pos int) bool {
	return pos < r.flushed || r.droppedAt[pos] != "" || r.pending[pos] != nil
}

// Complete records position pos's results (base nil for baseline points)
// and flushes every record the completion unblocked. Completing an
// already-resolved position — one that was dropped, or whose record was
// already emitted — is a no-op: the stream never rewinds.
func (r *Recorder) Complete(pos int, self sim.Result, base *sim.Result) error {
	if r.Resolved(pos) {
		return nil
	}
	rec := &PointRecord{
		Type:        "point",
		Index:       r.idxs[pos],
		Point:       r.pts[pos],
		Metrics:     metricsOf(self),
		Prefetchers: self.Prefetchers,
	}
	if base == nil {
		rec.Baseline = true
	} else {
		rec.Speedup = sim.Speedup(*base, self)
	}
	r.pending[pos] = rec
	return r.flush()
}

// Drop abandons position pos with a reason: no point record is emitted, the
// stream continues past it, and the summary accounts for it under
// dropped_points.
func (r *Recorder) Drop(pos int, reason string) error {
	if r.Resolved(pos) {
		return nil // already resolved; first resolution wins
	}
	r.droppedAt[pos] = reason
	r.droppedPoints = append(r.droppedPoints, DroppedPoint{
		Index: r.idxs[pos], Point: r.pts[pos], Reason: reason,
	})
	return r.flush()
}

// flush emits (and aggregates) buffered records strictly in index order,
// stopping at the first unresolved position. Aggregation happens here — in
// flush order, never completion order — so every float accumulation is a
// pure function of the spec.
func (r *Recorder) flush() error {
	for r.flushed < len(r.pts) {
		if r.droppedAt[r.flushed] != "" {
			r.flushed++
			continue
		}
		rec := r.pending[r.flushed]
		if rec == nil {
			return nil
		}
		r.pending[r.flushed] = nil
		if rec.Baseline {
			r.baselinePoints++
		} else {
			r.allRatios = append(r.allRatios, rec.Speedup...)
			coord := r.idxs[r.flushed]
			for a := len(r.axes) - 1; a >= 0; a-- {
				ax := r.axes[a]
				vi := int(coord % int64(ax.n))
				coord /= int64(ax.n)
				if ax.n < 2 {
					continue
				}
				pool := r.marginPools[ax.name]
				if pool == nil {
					pool = map[string][]float64{}
					r.marginPools[ax.name] = pool
				}
				pool[ax.label(vi)] = append(pool[ax.label(vi)], rec.Speedup...)
			}
		}
		if len(rec.Prefetchers) > 0 {
			r.prefStats = prefstats.Merge(r.prefStats, rec.Prefetchers)
		}
		if err := emitRec(r.emit, *rec); err != nil {
			return err
		}
		r.flushed++
	}
	return nil
}

// Finish emits the summary record and returns it. Every position must have
// been completed or dropped. fleet, when non-nil, is attached as
// coordinator telemetry.
func (r *Recorder) Finish(fleet *FleetSummary) (Summary, error) {
	if err := r.flush(); err != nil {
		return Summary{}, err
	}
	if r.flushed != len(r.pts) {
		return Summary{}, fmt.Errorf("sweep: campaign finished with %d of %d points unresolved",
			len(r.pts)-r.flushed, len(r.pts))
	}
	sum := Summary{
		Type:           "summary",
		Name:           r.c.Name,
		Points:         len(r.pts),
		BaselinePoints: r.baselinePoints,
	}
	kept, dropped := stats.FiniteRatios(r.allRatios)
	sum.Dropped = dropped
	if len(kept) > 0 {
		g := stats.GeomeanSpeedupPct(kept)
		sum.GeomeanSpeedupPct = &g
	}
	for name, pool := range r.marginPools {
		for label, ratios := range pool {
			g := stats.GeomeanSpeedupPct(ratios)
			if math.IsNaN(g) {
				continue
			}
			if sum.Marginals == nil {
				sum.Marginals = map[string]map[string]float64{}
			}
			if sum.Marginals[name] == nil {
				sum.Marginals[name] = map[string]float64{}
			}
			sum.Marginals[name][label] = g
		}
	}
	if len(r.droppedPoints) > 0 {
		sort.Slice(r.droppedPoints, func(i, j int) bool {
			return r.droppedPoints[i].Index < r.droppedPoints[j].Index
		})
		sum.DroppedPoints = r.droppedPoints
	}
	sum.Prefetchers = r.prefStats
	sum.Fleet = fleet
	c1 := experiments.EngineCounters()
	sum.Engine = EngineDelta{
		Sims:     c1.Sims - r.c0.Sims,
		MemoHits: c1.MemoHits - r.c0.MemoHits,
		DiskHits: c1.DiskHits - r.c0.DiskHits,
	}
	sum.ElapsedMS = time.Since(r.start).Milliseconds()
	if err := emitRec(r.emit, sum); err != nil {
		return Summary{}, err
	}
	return sum, nil
}

// Backend executes a campaign's deduplicated simulation runs for Engine.Run.
// Execute calls done or drop exactly once per run index, from the calling
// goroutine, and returns the first error either callback reports. It
// returns with runs unresolved only alongside an error (cancellation, or a
// callback's). The FleetSummary it returns, when non-nil, is attached to the
// campaign summary as fleet telemetry.
type Backend interface {
	Execute(ctx context.Context, runs []Point, done func(run int, res sim.Result) error, drop func(run int, reason string) error) (*FleetSummary, error)
}

// Engine executes campaigns. It is the one campaign executor for local and
// fleet runs alike: it owns the Recorder, journal replay, the deduplication
// of points into runs, the result store and the journal, and hands the runs
// themselves to a Backend. The zero value runs campaigns in-process on the
// shared experiment engine and is ready to use.
type Engine struct {
	// Workers is the in-process simulation parallelism per batch
	// (0 = GOMAXPROCS).
	Workers int
	// Backend executes the runs; nil runs them in-process through
	// experiments.RunJobs.
	Backend Backend

	// Journal, when non-nil, receives a durable record of every terminal
	// point event and the final sealed summary, making the campaign
	// crash-recoverable. Requires Store: the journal references results by
	// store key and only claims a point after its results are in the store.
	Journal *Journal
	// Store is the ResultStore runs are persisted to and rehydrated from.
	// Runs it already holds complete without reaching the Backend.
	Store experiments.ResultStore
	// Resume, when non-nil, is a recovered journal's state: journaled
	// completions replay from Store with zero simulations and only the
	// unfinished tail runs.
	Resume *JournalState
	// Logf, when non-nil, receives degradation notices (a failing journal
	// or store stops being written to, never fails the campaign).
	Logf func(format string, args ...any)

	batch int // in-process runs per RunJobs call; 0 = batchSize's default
}

func (e *Engine) logf(format string, args ...any) {
	if e.Logf != nil {
		e.Logf(format, args...)
	}
}

// batchSize bounds how many runs the in-process backend puts in flight per
// experiments.RunJobs call — the streaming granularity: four per worker,
// clamped to [16, 256]. Results are identical at any batch size.
func (e *Engine) batchSize() int {
	if e.batch > 0 {
		return e.batch
	}
	w := e.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return min(max(4*w, 16), 256)
}

// Run expands c, executes every point on the Backend, and calls emit with
// each marshaled NDJSON record (header, points in index order, summary) as
// it becomes available. A non-nil error from emit or ctx aborts the
// campaign.
//
// A point needs its own run and, unless it is a baseline point, its
// baseline partner's. Run deduplicates the unresolved points into runs keyed
// by experiments.JobKey — a baseline shared by thirty points runs once — in
// trace-identity order, so configs sharing one (mix, seed, refs) stream are
// adjacent and a batching backend advances them over a single trace walk.
// Only scheduling follows that order: the Recorder emits (and accumulates
// every float aggregate) strictly in index order, so the stream is
// byte-identical whatever the backend and however its runs finish.
func (e *Engine) Run(ctx context.Context, c Campaign, emit func(json.RawMessage) error) (Summary, error) {
	if e.Journal != nil && e.Store == nil {
		return Summary{}, fmt.Errorf("sweep: journaled campaign needs a result store")
	}
	rec, err := NewRecorder(c, emit)
	if err != nil {
		return Summary{}, err
	}

	// Resume: journaled terminal events replay through the Recorder before
	// anything is scheduled — completions rehydrate from the store with zero
	// simulations, drops re-drop, and only the unresolved tail runs below.
	var resolved []bool
	if e.Resume != nil {
		if resolved, err = e.Resume.Replay(rec, e.Store); err != nil {
			return Summary{}, err
		}
	}

	x := &execution{
		e: e, rec: rec, jl: e.Journal, store: e.Store,
		self: make([]int, rec.Len()),
		base: make([]int, rec.Len()),
		need: make([]int, rec.Len()),
	}
	at := map[string]int{}
	for _, pos := range groupedOrder(rec.pts) {
		if resolved != nil && resolved[pos] {
			continue
		}
		self, base, hasBase := rec.Pair(pos)
		x.base[pos] = -1
		if hasBase {
			if x.base[pos], err = x.add(at, base, pos); err != nil {
				return Summary{}, err
			}
		}
		if x.self[pos], err = x.add(at, self, pos); err != nil {
			return Summary{}, err
		}
	}
	x.res = make([]sim.Result, len(x.runs))
	x.durable = make([]bool, len(x.runs))

	// Store pre-pass: runs the store already holds complete without reaching
	// the backend. A torn or corrupt entry reads as a miss and runs again.
	var pending []Point
	var ids []int
	var storeHits uint64
	for id, p := range x.runs {
		if e.Store != nil {
			if res, ok := e.Store.Get(x.keys[id]); ok {
				storeHits++
				x.durable[id] = true
				if err := x.complete(id, res); err != nil {
					return Summary{}, err
				}
				continue
			}
		}
		pending = append(pending, p)
		ids = append(ids, id)
	}

	backend := e.Backend
	if backend == nil {
		backend = inProcess{workers: e.Workers, batch: e.batchSize()}
	}
	fleet, err := backend.Execute(ctx, pending,
		func(i int, res sim.Result) error { return x.done(ids[i], res) },
		func(i int, reason string) error { return x.drop(ids[i], reason) })
	if err != nil {
		return Summary{}, err
	}
	if fleet != nil {
		fleet.StoreHits = storeHits
	}
	sum, err := rec.Finish(fleet)
	if err != nil {
		return Summary{}, err
	}
	if x.jl != nil {
		if b, merr := json.Marshal(sum); merr == nil {
			if err := x.jl.Seal(b); err != nil {
				e.logf("campaign journal seal failed: %v", err)
			}
		}
	}
	return sum, nil
}

// execution is one Engine.Run's bookkeeping: the deduplicated runs, the
// positions waiting on each, and the durable layers still being written.
type execution struct {
	e     *Engine
	rec   *Recorder
	jl    *Journal                // nil once degraded
	store experiments.ResultStore // nil once degraded

	runs    []Point
	keys    []string // run → store key
	waiters [][]int  // run → positions needing it
	res     []sim.Result
	durable []bool // run → held by the store (pre-pass hit or Put)

	self, base []int // position → run (base -1 for baseline points)
	need       []int // position → runs still outstanding
}

// add registers position pos as waiting on p's run, creating the run on
// first sight, and returns the run's index.
func (x *execution) add(at map[string]int, p Point, pos int) (int, error) {
	key, ok := experiments.JobKey(p.Job())
	if !ok {
		return 0, fmt.Errorf("sweep: point %d is not memoizable", x.rec.idxs[pos])
	}
	id, seen := at[key]
	if !seen {
		id = len(x.runs)
		at[key] = id
		x.runs = append(x.runs, p)
		x.keys = append(x.keys, key)
		x.waiters = append(x.waiters, nil)
	}
	x.waiters[id] = append(x.waiters[id], pos)
	x.need[pos]++
	return id, nil
}

// done is the backend's completion callback: the result is Put to the store
// first, so complete's journal frames only ever claim durable results.
func (x *execution) done(id int, res sim.Result) error {
	if x.store != nil {
		if err := x.store.Put(x.keys[id], res); err != nil {
			x.e.logf("campaign store degraded, results no longer durable: %v", err)
			x.store = nil
		} else {
			x.durable[id] = true
		}
	}
	return x.complete(id, res)
}

// complete delivers run id's result to every position waiting on it. A
// position whose runs have all finished is journaled — when every run it
// references is durable — and then handed to the Recorder.
func (x *execution) complete(id int, res sim.Result) error {
	x.res[id] = res
	for _, pos := range x.waiters[id] {
		if x.rec.Resolved(pos) {
			continue // dropped with another run it needed
		}
		if x.need[pos]--; x.need[pos] > 0 {
			continue
		}
		s, b := x.self[pos], x.base[pos]
		var base *sim.Result
		baseKey, durable := "", x.durable[s]
		if b >= 0 {
			base, baseKey, durable = &x.res[b], x.keys[b], durable && x.durable[b]
		}
		if x.jl != nil && durable {
			if err := x.jl.Done(pos, x.keys[s], baseKey); err != nil {
				x.journalDegraded(err)
			}
		}
		if err := x.rec.Complete(pos, x.res[s], base); err != nil {
			return err
		}
	}
	return nil
}

// drop abandons every unresolved position waiting on run id, with reason.
func (x *execution) drop(id int, reason string) error {
	for _, pos := range x.waiters[id] {
		if x.rec.Resolved(pos) {
			continue
		}
		if x.jl != nil {
			if err := x.jl.Drop(pos, reason); err != nil {
				x.journalDegraded(err)
			}
		}
		if err := x.rec.Drop(pos, reason); err != nil {
			return err
		}
	}
	return nil
}

func (x *execution) journalDegraded(err error) {
	x.e.logf("campaign journal degraded, run no longer resumable: %v", err)
	x.jl = nil
}

// inProcess is the default Backend: runs execute on the process-shared
// experiment engine in lockstep batches, so every run shares the engine's
// memo and persistent disk cache with every other front end. Runs arrive in
// trace-identity order, so configs sharing a trace land in the same RunJobs
// call and the first records wait only on the first batch. Local
// simulations cannot fail short of cancellation: nothing is ever dropped.
type inProcess struct{ workers, batch int }

func (b inProcess) Execute(ctx context.Context, runs []Point, done func(int, sim.Result) error, _ func(int, string) error) (*FleetSummary, error) {
	for lo := 0; lo < len(runs); lo += b.batch {
		hi := min(lo+b.batch, len(runs))
		jobs := make([]experiments.Job, hi-lo)
		for i := range jobs {
			jobs[i] = runs[lo+i].Job()
		}
		results, err := experiments.RunJobs(ctx, jobs, b.workers)
		if err != nil {
			return nil, err
		}
		for i, res := range results {
			if err := done(lo+i, res); err != nil {
				return nil, err
			}
		}
	}
	return nil, nil
}

func strategyName(s string) string {
	if s == "" {
		return StrategyGrid
	}
	return s
}

// groupedOrder returns point positions regrouped by trace identity — the
// (workload mix, refs, seed) triple jobs must share to batch — keeping
// first-appearance order between groups and index order within each, so the
// schedule is a pure function of the point list.
func groupedOrder(pts []Point) []int {
	groups := map[string][]int{}
	var order []string
	for i, p := range pts {
		k := fmt.Sprintf("%s\x00%d\x00%d", strings.Join(p.Workloads, "\x01"), p.Refs, p.Seed)
		if groups[k] == nil {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	out := make([]int, 0, len(pts))
	for _, k := range order {
		out = append(out, groups[k]...)
	}
	return out
}

func emitRec(emit func(json.RawMessage) error, v any) error {
	if emit == nil {
		return nil
	}
	line, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("sweep: marshal record: %w", err)
	}
	return emit(line)
}

// NDJSONEmitter adapts an io.Writer into an emit callback: one record per
// line, flushed to w as it completes.
func NDJSONEmitter(w io.Writer) func(json.RawMessage) error {
	return func(line json.RawMessage) error {
		if _, err := w.Write(line); err != nil {
			return err
		}
		_, err := w.Write([]byte("\n"))
		return err
	}
}
