package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dspatch/internal/dram"
	"dspatch/internal/sim"
	"dspatch/internal/trace"
)

// Job is one simulation the engine schedules: a workload mix (one entry =
// single-thread, four = the paper's multi-programmed machine) run under Opt.
type Job struct {
	Workloads []trace.Workload
	Opt       sim.Options
}

// SingleJob is shorthand for a one-core job.
func SingleJob(w trace.Workload, opt sim.Options) Job {
	return Job{Workloads: []trace.Workload{w}, Opt: opt}
}

// runKey identifies a memoizable run: every option that affects a
// simulation's outcome and nothing that doesn't. Simulations are
// deterministic functions of this key, so figures that share runs — Figs. 4
// and 6 share every BOP/SMS/SPP point, Figs. 12/14 and the headline share
// the SPP and DSPatch+SPP runs, and every figure shares baselines — simulate
// each distinct configuration exactly once per process.
type runKey struct {
	names      string
	dram       dram.Config
	llcBytes   int
	refs       int
	seed       int64
	l2         sim.PF
	noL1Stride bool
	// smsPHT is kept only for the one prefetcher it parameterizes, so
	// Fig. 5's four-point sweep still shares a single baseline per workload.
	smsPHT int
	// collectStats is part of the key even though it cannot change core
	// metrics: a stats-off result carries no Prefetchers snapshot, and
	// serving it to a stats-on request (or vice versa) would make the memo
	// lossy.
	collectStats bool
}

// memoizable reports whether j is a shareable run and, if so, its cache key.
// Pollution-tracking runs are excluded: the key does not carry the flag, so
// a tracked and an untracked run would share one entry.
func memoizable(j Job) (runKey, bool) {
	if j.Opt.TrackPollution {
		return runKey{}, false
	}
	names := make([]string, len(j.Workloads))
	for i, w := range j.Workloads {
		names[i] = w.Name
		// Non-builtin workloads fold their content fingerprint into the key:
		// an imported trace or registered spec is cached by what it contains,
		// so renaming identical content still hits and editing a spec misses.
		// Builtin fingerprints are empty, keeping historical cache entries
		// valid.
		if w.Fingerprint != "" {
			names[i] = w.Name + "\x01" + w.Fingerprint
		}
	}
	l2 := j.Opt.L2
	if l2 == "" {
		l2 = sim.PFNone
	}
	smsPHT := 0
	if l2 == sim.PFSMS {
		smsPHT = j.Opt.SMSPHTEntries
	}
	return runKey{
		names:        strings.Join(names, "\x00"),
		dram:         j.Opt.DRAM,
		llcBytes:     j.Opt.LLCBytes,
		refs:         j.Opt.Refs,
		seed:         j.Opt.Seed,
		l2:           l2,
		noL1Stride:   j.Opt.NoL1Stride,
		smsPHT:       smsPHT,
		collectStats: j.Opt.CollectStats,
	}, true
}

// memoEntry computes its result once under the ownership of whichever
// request installed it, so two distinct baselines never serialize on each
// other and a duplicate submitted concurrently waits for the first instead of
// re-simulating. Ownership is decided at insertion (the inserter computes,
// everyone else waits on done), which lets a worker claim a task's entries up
// front and fill them from one lockstep run. A canceled computation records
// err and is dropped from the memo, so a later request recomputes instead of
// inheriting the cancellation.
type memoEntry struct {
	done     chan struct{} // closed once res/err/panicked are final
	res      sim.Result
	err      error
	panicked any // recovered panic value; re-raised for every observer
}

// Counters is a monotonic snapshot of the engine's work ledger. Long-running
// callers (the dspatchd daemon's /metrics, tests proving cache behaviour)
// read it before and after an operation and look at the deltas.
type Counters struct {
	// Sims counts simulations actually executed (cold runs).
	Sims uint64
	// MemoHits counts runs served from the in-process memo without
	// simulating — including concurrent duplicates that waited on the
	// first computation.
	MemoHits uint64
	// DiskHits counts runs loaded from the persistent -cache-dir store.
	DiskHits uint64
	// RefsSimulated totals memory references of cold runs (refs × lanes).
	RefsSimulated uint64
	// SimNanos totals wall time spent inside cold simulations. A lockstep
	// batch contributes its wall time once, however many configs it carried,
	// so with RefsSimulated this yields the engine's aggregate refs/s —
	// including the batching speedup.
	SimNanos uint64
	// Batches counts multi-config lockstep batches executed (each also adds
	// one Sims per member config).
	Batches uint64
}

// Runner fans simulation jobs across a goroutine pool and memoizes every
// port-independent run, so each distinct (workload mix, options)
// configuration simulates exactly once per process no matter how many
// figures request it.
type Runner struct {
	workers int

	mu       sync.Mutex
	memo     map[runKey]*memoEntry
	store    ResultStore // non-nil: persistent run cache backend (diskcache.go)
	cacheDir string      // directory label when store is a DirStore

	// cacheWriteOff latches after the first failed store write: the backend
	// is degraded (disk full, permissions), so further writes are skipped
	// while reads and simulation continue.
	cacheWriteOff atomic.Bool

	sims     atomic.Uint64
	memoHits atomic.Uint64
	diskHits atomic.Uint64
	refsSim  atomic.Uint64
	simNanos atomic.Uint64
	batches  atomic.Uint64
}

// NewRunner returns a Runner whose default pool width is workers
// (<= 0 means runtime.GOMAXPROCS(0)).
func NewRunner(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: workers, memo: map[runKey]*memoEntry{}}
}

// engine is the process-wide runner every Fig*/Table* function shares, so a
// baseline simulated for one figure is reused by the next.
var engine = NewRunner(0)

// ResetMemo drops every memoized run from the shared engine. Benchmarks and
// cache tests use it to measure cold-memo behaviour (a fresh process);
// normal callers never need it. Counters are monotonic and unaffected.
func ResetMemo() {
	engine.mu.Lock()
	engine.memo = map[runKey]*memoEntry{}
	engine.mu.Unlock()
}

// MemoLen reports how many runs the shared engine currently caches.
func MemoLen() int {
	engine.mu.Lock()
	defer engine.mu.Unlock()
	return len(engine.memo)
}

// EngineCounters snapshots the shared engine's work ledger.
func EngineCounters() Counters {
	return engine.Counters()
}

// Counters snapshots this runner's work ledger.
func (r *Runner) Counters() Counters {
	return Counters{
		Sims:          r.sims.Load(),
		MemoHits:      r.memoHits.Load(),
		DiskHits:      r.diskHits.Load(),
		RefsSimulated: r.refsSim.Load(),
		SimNanos:      r.simNanos.Load(),
		Batches:       r.batches.Load(),
	}
}

// runCtx resolves memoizable job jobs[i] whose entry another request may
// own: it waits for that owner and serves its result as a memo hit.
//
// Cancellation safety: an entry whose computation was canceled is dropped,
// never served. A waiter that finds one retries with a fresh entry as long as
// its own context is live — claiming and filling it itself if nobody else
// has — so one canceled request never poisons the shared memo for others.
func (r *Runner) runCtx(ctx context.Context, jobs []Job, i int) (sim.Result, error) {
	key, _ := memoizable(jobs[i])
	for {
		e, owner := r.acquire(key)
		if owner {
			r.fill(ctx, jobs, []claim{{idx: i, key: key, memo: true, e: e}})
		} else {
			<-e.done
		}
		if e.err != nil {
			r.dropEntry(key, e)
			if e.panicked != nil {
				// Preserve sim.Run's panic semantics for waiters (dspatchd's
				// execute recovers it into a failed job; the entry is gone,
				// so a resubmission re-simulates instead of reading a
				// poisoned memo).
				panic(e.panicked)
			}
			if err := ctx.Err(); err != nil {
				return canceledResult(jobs[i]), err
			}
			continue // the computing request was canceled, not this one: retry
		}
		if !owner {
			r.memoHits.Add(1)
		}
		return e.res, nil
	}
}

// acquire looks up (or installs) the memo entry of key. The request that
// installs the entry owns it — it must fill res/err and close done through
// fill — and every later request waits on done instead.
func (r *Runner) acquire(key runKey) (e *memoEntry, owner bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e = r.memo[key]
	if e == nil {
		e = &memoEntry{done: make(chan struct{})}
		r.memo[key] = e
		owner = true
	}
	return e, owner
}

// dropEntry removes a failed entry from the memo (if it is still the resident
// one) so a later request recomputes instead of inheriting the failure.
func (r *Runner) dropEntry(key runKey, e *memoEntry) {
	r.mu.Lock()
	if r.memo[key] == e {
		delete(r.memo, key)
	}
	r.mu.Unlock()
}

// claim is one entry a worker owns and must fill: jobs[idx]'s result lands
// in e. A memoizable job's entry sits in the memo under key; a
// pollution-tracking job gets a private entry (memo false) that bypasses the
// memo and the persistent store.
type claim struct {
	idx  int
	key  runKey
	memo bool
	e    *memoEntry
}

// fill resolves owned entries of jobs sharing one trace identity: the
// persistent store first, then one sim.RunBatchCtx walk for the rest — a lone
// config is a batch of one. Every entry is closed on return.
//
// Failure isolation is per entry: a canceled run records the error into every
// cold entry and drops it from the memo — siblings are never left holding a
// partial result — and a panic is recorded the same way before it is
// re-raised, so no waiter hangs on an open entry and each waiter re-raises it.
func (r *Runner) fill(ctx context.Context, jobs []Job, cs []claim) {
	r.mu.Lock()
	st := r.store
	r.mu.Unlock()
	var cold []claim
	for _, c := range cs {
		if c.memo {
			if res, ok := r.cacheGet(st, c.key); ok {
				r.diskHits.Add(1)
				c.e.res = res
				close(c.e.done)
				continue
			}
		}
		cold = append(cold, c)
	}
	if len(cold) == 0 {
		return
	}
	fail := func(err error, p any) {
		for _, c := range cold {
			c.e.err, c.e.panicked = err, p
			close(c.e.done)
			if c.memo {
				r.dropEntry(c.key, c.e)
			}
		}
	}
	ws := jobs[cold[0].idx].Workloads
	opts := make([]sim.Options, len(cold))
	for k, c := range cold {
		opts[k] = jobs[c.idx].Opt
	}
	start := time.Now()
	batch, err := func() ([]sim.Result, error) {
		defer func() {
			if p := recover(); p != nil {
				fail(fmt.Errorf("simulation panicked: %v", p), p)
				panic(p)
			}
		}()
		return sim.RunBatchCtx(ctx, ws, opts)
	}()
	if err != nil {
		fail(err, nil)
		return
	}
	// One batch is one trace walk: wall time lands once, work (sims, refs)
	// lands per member config.
	r.simNanos.Add(uint64(time.Since(start)))
	if len(cold) > 1 {
		r.batches.Add(1)
	}
	for k, c := range cold {
		r.sims.Add(1)
		r.refsSim.Add(uint64(opts[k].Refs) * uint64(len(ws)))
		if c.memo {
			r.cachePut(st, c.key, batch[k])
		}
		c.e.res = batch[k]
		close(c.e.done)
	}
}

// canceledResult is the placeholder for a run aborted by cancellation: zero
// metrics, but one IPC slot per workload so downstream aggregation that
// indexes per-core fields stays in bounds. Speedup ratios computed from it
// are zero and are dropped by stats.FiniteRatios.
func canceledResult(j Job) sim.Result {
	return sim.Result{IPC: make([]float64, len(j.Workloads))}
}

// RunAll executes jobs across a pool of the given width (<= 0 means the
// Runner's default) and returns results in submission order: results[i] is
// jobs[i]'s outcome regardless of scheduling, so parallel and serial runs
// aggregate bit-identically.
func (r *Runner) RunAll(jobs []Job, workers int) []sim.Result {
	results, _ := r.RunAllCtx(context.Background(), jobs, workers)
	return results
}

// maxBatchConfigs bounds how many machine configurations one lockstep batch
// carries. Beyond this the machines' combined hot state stops fitting in
// cache and the batch degrades toward serial speed, so larger groups are
// split into consecutive batches.
const maxBatchConfigs = 16

// batchKey is the trace identity jobs must share to advance in lockstep over
// one trace walk: the workload mix, the base seed, and the ref count.
type batchKey struct {
	names string
	refs  int
	seed  int64
}

// plan partitions jobs into tasks, each a list of job indices one worker runs
// as a single lockstep batch. Memoizable jobs group by trace identity in
// first-appearance order, chunked at maxBatchConfigs; a lone job is a group
// of one. Non-memoizable (pollution-tracking) jobs always run alone: they
// bypass batching the same way they bypass the memo.
func plan(jobs []Job) [][]int {
	var tasks [][]int
	groups := map[batchKey][]int{}
	var order []batchKey
	for i, j := range jobs {
		key, ok := memoizable(j)
		if !ok {
			tasks = append(tasks, []int{i})
			continue
		}
		bk := batchKey{names: key.names, refs: key.refs, seed: key.seed}
		if groups[bk] == nil {
			order = append(order, bk)
		}
		groups[bk] = append(groups[bk], i)
	}
	for _, bk := range order {
		idxs := groups[bk]
		for lo := 0; lo < len(idxs); lo += maxBatchConfigs {
			tasks = append(tasks, idxs[lo:min(lo+maxBatchConfigs, len(idxs))])
		}
	}
	return tasks
}

// RunAllCtx is RunAll under a context: when ctx fires, in-flight simulations
// abort at their next cancellation check, every not-yet-run job is filled
// with canceledResult, and the first context error is returned. Results of
// jobs that completed before the cancellation are exact.
func (r *Runner) RunAllCtx(ctx context.Context, jobs []Job, workers int) ([]sim.Result, error) {
	if workers <= 0 {
		workers = r.workers
	}
	tasks := plan(jobs)
	if workers > len(tasks) {
		workers = len(tasks)
	}
	results := make([]sim.Result, len(jobs))
	var errMu sync.Mutex
	var firstErr error
	noteErr := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	if workers <= 1 {
		for _, t := range tasks {
			r.runGroup(ctx, jobs, t, results, noteErr)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(tasks) {
						return
					}
					r.runGroup(ctx, jobs, tasks[i], results, noteErr)
				}
			}()
		}
		wg.Wait()
	}
	return results, firstErr
}

// runGroup executes one task. Each memoizable job claims its memo entry; the
// owned entries fill from one lockstep run, and entries another request
// already owns (possibly an earlier duplicate in this very task) are waited
// on afterwards. Waiting then is deadlock-free: this worker holds no open
// entries anymore. Failed entries yield canceledResult-shaped placeholders,
// so results[i] always has one IPC slot per workload.
func (r *Runner) runGroup(ctx context.Context, jobs []Job, idxs []int, results []sim.Result, noteErr func(error)) {
	var owned []claim
	var waits []int
	for _, i := range idxs {
		key, memo := memoizable(jobs[i])
		if !memo {
			owned = append(owned, claim{idx: i, e: &memoEntry{done: make(chan struct{})}})
			continue
		}
		e, owner := r.acquire(key)
		if !owner {
			waits = append(waits, i)
			continue
		}
		owned = append(owned, claim{idx: i, key: key, memo: true, e: e})
	}
	r.fill(ctx, jobs, owned)
	for _, c := range owned {
		results[c.idx] = c.e.res
		if c.e.err != nil {
			noteErr(c.e.err)
			results[c.idx] = canceledResult(jobs[c.idx])
		}
	}
	for _, i := range waits {
		res, err := r.runCtx(ctx, jobs, i)
		if err != nil {
			noteErr(err)
		}
		results[i] = res
	}
}

// RunJobs schedules jobs on the process-shared engine — the programmatic
// entry the dspatchd service layers on. Results share the same memo and
// persistent cache as the Fig*/Table* functions, so a job submitted over
// HTTP and the equivalent library call return identical results and the
// second of the two never re-simulates.
func RunJobs(ctx context.Context, jobs []Job, workers int) ([]sim.Result, error) {
	return engine.RunAllCtx(ctx, jobs, workers)
}

// runAll schedules jobs on the shared engine at this scale's parallelism.
func (s Scale) runAll(jobs []Job) []sim.Result {
	results, _ := engine.RunAllCtx(s.context(), jobs, s.Parallel)
	return results
}
