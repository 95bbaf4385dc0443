package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dspatch/internal/experiments"
	"dspatch/internal/service"
	"dspatch/internal/sim"
	"dspatch/internal/sweep"
)

// campaignRefs keeps points short, so the service, the store and the journal
// are a visible share of campaign time, yet long enough that the daemons'
// fsyncs do not dominate: on a disk shared with other tenants fsync latency
// drifts far more than compute speed does.
const campaignRefs = 20_000

// An iteration resubmits the campaign durableResubmits times to the daemon
// with the durable layer and campaignResubmits times to a daemon over the
// same engine cache without it. The durable daemon re-puts and re-journals
// every point of a resubmission, an fsync each, so its resubmission time
// follows the disk's fsync latency, which drifts between runs by more than
// resubmit_s's bound; it is reported per layer. The other daemon only reads,
// and resubmit_s is the median of its many short resubmissions.
const (
	durableResubmits  = 3
	campaignResubmits = 10
)

// benchCampaign is the grid every campaign deployment runs: 4 single-core
// workloads x 2 seeds x 4 prefetchers, 32 points and 32 distinct runs.
// Seeds 2s+1 and 2s+2 keep the inputs of different --seed values apart.
func benchCampaign(seed int64) sweep.Campaign {
	return sweep.Campaign{
		Name: "benchmark",
		Base: sweep.Point{Refs: campaignRefs},
		Axes: sweep.Axes{
			Workloads: []sweep.Mix{{"tpcc"}, {"linpack"}, {"parsec-stream"}, {"mcf"}},
			Seeds:     []int64{2*seed + 1, 2*seed + 2},
			L2:        []string{"none", "spp", "dspatch", "dspatch+spp"},
		},
	}
}

// timedStore wraps the engine's result store and times each call.
type timedStore struct {
	inner      experiments.ResultStore
	mu         sync.Mutex
	gets, puts []float64 // ms
}

func (s *timedStore) Get(key string) (sim.Result, bool) {
	t := time.Now()
	res, ok := s.inner.Get(key)
	s.note(&s.gets, time.Since(t))
	return res, ok
}

func (s *timedStore) Put(key string, res sim.Result) error {
	t := time.Now()
	err := s.inner.Put(key, res)
	s.note(&s.puts, time.Since(t))
	return err
}

func (s *timedStore) note(dst *[]float64, d time.Duration) {
	s.mu.Lock()
	*dst = append(*dst, ms(d))
	s.mu.Unlock()
}

// busyTimer wraps a daemon's handler and sums the time requests spend in it.
type busyTimer struct {
	ns       atomic.Int64
	inflight atomic.Int64
}

func (b *busyTimer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b.inflight.Add(1)
		t := time.Now()
		h.ServeHTTP(w, r)
		b.ns.Add(int64(time.Since(t)))
		b.inflight.Add(-1)
	})
}

// settle waits until no request is inside the handler, so a request that
// finished writing but has not returned is counted.
func (b *busyTimer) settle() {
	for deadline := time.Now().Add(time.Second); b.inflight.Load() > 0 && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}
}

// dispatchLog wraps a fleet worker's handler. It sees each dispatch as a
// POST /v1/runs followed by GET /v1/jobs/{id} polls, the last of which
// returns the finished job; a POST whose body it has seen before is a
// redispatch.
type dispatchLog struct {
	mu      sync.Mutex
	start   map[string]time.Time
	end     map[string]time.Time
	bodies  map[[32]byte]bool
	posts   int
	repeats int
}

func newDispatchLog() *dispatchLog {
	l := &dispatchLog{}
	l.reset()
	return l
}

func (l *dispatchLog) reset() {
	l.mu.Lock()
	l.start, l.end, l.bodies = map[string]time.Time{}, map[string]time.Time{}, map[[32]byte]bool{}
	l.posts, l.repeats = 0, 0
	l.mu.Unlock()
}

// captureWriter keeps a copy of a (small) response body.
type captureWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (c *captureWriter) Write(p []byte) (int, error) {
	c.buf.Write(p)
	return c.ResponseWriter.Write(p)
}

func (l *dispatchLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/runs":
			t := time.Now()
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			cw := &captureWriter{ResponseWriter: w}
			h.ServeHTTP(cw, r)
			var jv service.JobView
			_ = json.Unmarshal(cw.buf.Bytes(), &jv) // a shed request has no job
			sum := sha256.Sum256(body)
			l.mu.Lock()
			l.posts++
			if l.bodies[sum] {
				l.repeats++
			}
			l.bodies[sum] = true
			if jv.ID != "" {
				l.start[jv.ID] = t
			}
			l.mu.Unlock()
		case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
			h.ServeHTTP(w, r)
			l.mu.Lock()
			l.end[strings.TrimPrefix(r.URL.Path, "/v1/jobs/")] = time.Now()
			l.mu.Unlock()
		default:
			h.ServeHTTP(w, r)
		}
	})
}

// intervals returns each dispatch's [submit, result] span.
func (l *dispatchLog) intervals() [][2]time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out [][2]time.Time
	for id, s := range l.start {
		if e, ok := l.end[id]; ok {
			out = append(out, [2]time.Time{s, e})
		}
	}
	return out
}

// busyFrac is the share of [from, to] during which at least one of spans
// was open.
func busyFrac(spans [][2]time.Time, from, to time.Time) float64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i][0].Before(spans[j][0]) })
	var busy time.Duration
	var curS, curE time.Time
	for i, s := range spans {
		if i == 0 || s[0].After(curE) {
			busy += curE.Sub(curS)
			curS, curE = s[0], s[1]
		} else if s[1].After(curE) {
			curE = s[1]
		}
	}
	busy += curE.Sub(curS)
	return ratio(float64(busy), float64(to.Sub(from)))
}

// daemon is one in-process service.Server behind a loopback listener.
type daemon struct {
	srv    *service.Server
	hs     *http.Server
	url    string
	served chan struct{}
}

func startDaemon(cfg service.Config, wrap func(http.Handler) http.Handler) (*daemon, error) {
	srv, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background())
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: wrap(srv.Handler())},
		url:    "http://" + ln.Addr().String(),
		served: make(chan struct{}),
	}
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return d, nil
}

func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.srv.Drain(ctx)
	if err := d.hs.Shutdown(ctx); err != nil {
		d.hs.Close()
	}
	<-d.served
}

// deployment is one campaign service: a single daemon and its reader, or a
// coordinator and two worker daemons, over a fresh store directory.
type deployment struct {
	daemons []*daemon // the daemon clients talk to is first
	client  *service.Client
	reader  *service.Client // single daemon only: no durable layer
	httpc   *http.Client
	store   *timedStore
	busy    busyTimer
	workers []*dispatchLog // fleet only
}

// deploy starts the daemon(s) over dir and waits until each is healthy. The
// engine's result store is a timed DirStore in dir/cache, as with dspatchd
// -cache-dir. The single daemon keeps its durable layer in dir/store on the
// pack backend (dspatchd -store-dir -store pack): appends to one file instead
// of a new file per result, which keeps its fsyncs cheap and steady. Its
// reader is a second daemon with the engine cache alone (dspatchd -cache-dir
// over the same directory). The coordinator's shared store is a DirStore in
// dir/store.
func deploy(c runConfig, fleet bool, dir string) (*deployment, error) {
	ds, err := experiments.NewDirStore(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	dep := &deployment{store: &timedStore{inner: ds}}
	experiments.SetResultStore(dep.store)
	// One client connection: the closed loop never has two requests open.
	dep.httpc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	maxWait := time.Minute
	var front *daemon
	if fleet {
		// Two workers with nproc dispatches in flight between them.
		perWorker := max(1, c.workers/2)
		var urls []string
		for i := 0; i < 2; i++ {
			log := newDispatchLog()
			w, err := startDaemon(service.Config{JobWorkers: perWorker, SimWorkers: 1, MaxWait: maxWait}, log.wrap)
			if err != nil {
				dep.teardown()
				return nil, err
			}
			dep.daemons = append(dep.daemons, w)
			dep.workers = append(dep.workers, log)
			urls = append(urls, w.url)
		}
		front, err = startDaemon(service.Config{
			JobWorkers: 1, SimWorkers: c.workers, MaxWait: maxWait,
			Fleet: &service.FleetConfig{Workers: urls, StoreDir: filepath.Join(dir, "store"), MaxInflight: perWorker},
		}, dep.busy.wrap)
	} else {
		var reader *daemon
		reader, err = startDaemon(service.Config{JobWorkers: 1, SimWorkers: c.workers, MaxWait: maxWait}, noWrap)
		if err != nil {
			dep.teardown()
			return nil, err
		}
		dep.daemons = append(dep.daemons, reader)
		dep.reader = service.NewClient(reader.url)
		dep.reader.HTTPClient = dep.httpc
		front, err = startDaemon(service.Config{
			JobWorkers: 1, SimWorkers: c.workers, MaxWait: maxWait,
			StoreDir: filepath.Join(dir, "store"), StoreBackend: "pack",
		}, dep.busy.wrap)
	}
	if err != nil {
		dep.teardown()
		return nil, err
	}
	dep.daemons = append([]*daemon{front}, dep.daemons...)
	dep.client = service.NewClient(front.url)
	dep.client.HTTPClient = dep.httpc
	for _, d := range dep.daemons {
		if err := waitHealthy(d.url, dep.httpc); err != nil {
			dep.teardown()
			return nil, err
		}
	}
	return dep, nil
}

func noWrap(h http.Handler) http.Handler { return h }

func waitHealthy(url string, httpc *http.Client) error {
	cl := service.NewClient(url)
	cl.HTTPClient = httpc
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		h, err := cl.Health(ctx)
		if err == nil && h.Status == "ok" {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("daemon %s not healthy: %v", url, err)
		case <-time.After(time.Millisecond):
		}
	}
}

func (dep *deployment) teardown() {
	for _, d := range dep.daemons {
		d.stop()
	}
	experiments.SetResultStore(nil)
	dep.httpc.CloseIdleConnections()
}

// stream is one campaign submission read to its summary record.
type stream struct {
	submit     time.Duration // POST /v1/campaigns round trip
	ttfb       time.Duration // stream request to its first record
	firstPoint time.Duration // submission to the first point record
	total      time.Duration // submission to the summary record
	points     [][]byte
	records    int
	bytes      int
	summary    sweep.Summary
}

// runCampaign submits camp through cl and reads its stream to the summary
// record.
func runCampaign(ctx context.Context, cl *service.Client, camp sweep.Campaign) (stream, error) {
	var s stream
	t0 := time.Now()
	jv, err := cl.SubmitCampaign(ctx, camp)
	if err != nil {
		return s, fmt.Errorf("submit: %w", err)
	}
	s.submit = time.Since(t0)
	t1 := time.Now()
	body, err := cl.CampaignStream(ctx, jv.ID, time.Minute)
	if err != nil {
		return s, fmt.Errorf("stream: %w", err)
	}
	defer body.Close()
	br := bufio.NewReader(body)
	for {
		line, rerr := br.ReadBytes('\n')
		if rec := bytes.TrimSpace(line); len(rec) > 0 {
			now := time.Now()
			if s.records == 0 {
				s.ttfb = now.Sub(t1)
			}
			s.records++
			s.bytes += len(line)
			var head struct {
				Type string `json:"type"`
			}
			if err := json.Unmarshal(rec, &head); err != nil {
				return s, fmt.Errorf("record %d: %w", s.records, err)
			}
			switch head.Type {
			case "point":
				if s.points == nil {
					s.firstPoint = now.Sub(t0)
				}
				s.points = append(s.points, append([]byte(nil), rec...))
			case "summary":
				s.total = now.Sub(t0)
				if err := json.Unmarshal(rec, &s.summary); err != nil {
					return s, fmt.Errorf("summary: %w", err)
				}
				_, _ = io.Copy(io.Discard, body) // let the connection be reused
				return s, nil
			}
		}
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				rerr = errors.New("stream ended before the summary record")
			}
			return s, rerr
		}
	}
}

// iteration is one deployment's cold campaign and its resubmissions.
type iteration struct {
	setup      time.Duration
	cold       stream
	durable    []stream             // resubmissions to the front daemon
	resubs     []stream             // resubmissions to the reader
	coldEng    experiments.Counters // engine work of the cold pass
	resubEng   experiments.Counters // engine work of the first resubmission
	resubSims  uint64               // simulations over every resubmission
	busy       time.Duration        // front daemon handler time, cold pass
	heapPeak   float64
	mallocs    uint64 // cold pass; traced runs only
	gcPause    time.Duration
	gets, puts []float64
	dispatchMS []float64
	posts      int
	repeats    int
	workerBusy float64
	resubPosts int
}

func counterDelta(a, b experiments.Counters) experiments.Counters {
	return experiments.Counters{
		Sims:          b.Sims - a.Sims,
		MemoHits:      b.MemoHits - a.MemoHits,
		DiskHits:      b.DiskHits - a.DiskHits,
		RefsSimulated: b.RefsSimulated - a.RefsSimulated,
	}
}

// runOnce deploys over dir and runs the campaign cold, then resubmits it.
// Set-up records jobs' traces from an empty trace store, so the cold
// campaign meets warm traces, and starts the daemons.
func runOnce(c runConfig, fleet bool, camp sweep.Campaign, jobs []experiments.Job, dir string) (it iteration, err error) {
	ctx := context.Background()
	t := time.Now()
	materialize(jobs)
	dep, err := deploy(c, fleet, dir)
	if err != nil {
		return it, err
	}
	it.setup = time.Since(t)
	defer func() {
		dep.teardown()
		if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
			err = rerr
		}
	}()

	runtime.GC()
	heap := startHeapPeak()
	defer func() {
		if p := heap.stop(); err == nil {
			it.heapPeak = p
		}
	}()
	var m0, m1 runtime.MemStats
	if c.traced {
		runtime.ReadMemStats(&m0)
	}
	experiments.ResetMemo()
	dep.busy.ns.Store(0)
	c0 := experiments.EngineCounters()
	coldStart := time.Now()
	if it.cold, err = runCampaign(ctx, dep.client, camp); err != nil {
		return it, fmt.Errorf("cold campaign: %w", err)
	}
	dep.busy.settle()
	it.busy = time.Duration(dep.busy.ns.Load())
	c1 := experiments.EngineCounters()
	if c.traced {
		runtime.ReadMemStats(&m1)
		it.mallocs = m1.Mallocs - m0.Mallocs
		it.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	}
	it.coldEng = counterDelta(c0, c1)
	if fleet {
		var fracs []float64
		for _, w := range dep.workers {
			spans := w.intervals()
			for _, s := range spans {
				it.dispatchMS = append(it.dispatchMS, ms(s[1].Sub(s[0])))
			}
			fracs = append(fracs, busyFrac(spans, coldStart, coldStart.Add(it.cold.total)))
			it.posts += w.posts
			it.repeats += w.repeats
			w.reset()
		}
		it.workerBusy = median(fracs)
	}

	resubmit := func(cl *service.Client, n int, dst *[]stream) error {
		for k := 0; k < n; k++ {
			experiments.ResetMemo()
			c2 := experiments.EngineCounters()
			s, err := runCampaign(ctx, cl, camp)
			if err != nil {
				return fmt.Errorf("resubmitted campaign: %w", err)
			}
			d := counterDelta(c2, experiments.EngineCounters())
			it.resubSims += d.Sims
			if len(it.durable)+len(it.resubs) == 0 {
				it.resubEng = d
			}
			*dst = append(*dst, s)
		}
		return nil
	}
	if err := resubmit(dep.client, durableResubmits, &it.durable); err != nil {
		return it, err
	}
	if dep.reader != nil {
		if err := resubmit(dep.reader, campaignResubmits, &it.resubs); err != nil {
			return it, err
		}
	}
	for _, w := range dep.workers {
		it.resubPosts += w.posts
	}
	dep.store.mu.Lock()
	it.gets, it.puts = dep.store.gets, dep.store.puts
	dep.store.mu.Unlock()
	return it, nil
}

// check compares an iteration's streams with the reference point records.
func (it *iteration) check(want [][]byte, fleet bool, rep *report) {
	streams := append(append([]stream{it.cold}, it.durable...), it.resubs...)
	for i, st := range streams {
		name := "cold"
		if i > 0 {
			name = "resubmitted"
			if st.summary.Engine.Sims != 0 {
				rep.fail("resubmission reports %d simulations, want 0", st.summary.Engine.Sims)
			}
		}
		rep.attempted += len(want)
		if missing := len(want) - len(st.points); missing > 0 {
			rep.failed += missing
		}
		if n := len(st.summary.DroppedPoints); n > 0 {
			rep.fail("%s campaign dropped %d points: %s", name, n, st.summary.DroppedPoints[0].Reason)
		}
		if !sameRecords(want, st.points) {
			rep.failed++
			rep.fail("%s campaign's point records differ from the reference daemon's", name)
		}
	}
	if it.resubSims != 0 {
		rep.fail("resubmissions ran %d simulations, want 0", it.resubSims)
	}
	if fleet && it.resubPosts != 0 {
		rep.fail("fleet resubmission dispatched %d runs, want 0", it.resubPosts)
	}
}

func sameRecords(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// runCampaignDaemon measures the campaign on a fresh single-daemon
// deployment per iteration. A first, untimed campaign on a single daemon
// gives the reference point records every later stream must reproduce byte
// for byte.
//
// The traced run splits its time in three: single-daemon deployments, for
// the service, store and sweep layers; fleet deployments (a coordinator and
// two worker daemons), for the dispatch layer and the check that the fleet
// reproduces the single daemon's records; and tracing the simulator over
// the campaign's runs.
func runCampaignDaemon(c runConfig) (*report, error) {
	rep := newReport()
	camp := benchCampaign(c.seed)
	root, err := os.MkdirTemp(c.workdir, "campaign-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	ref, err := runOnce(runConfig{workers: c.workers}, false, camp, nil, filepath.Join(root, "reference"))
	if err != nil {
		return nil, fmt.Errorf("reference campaign: %w", err)
	}
	want := ref.cold.points
	if len(want) != ref.cold.summary.Points || len(want) == 0 {
		return nil, fmt.Errorf("reference campaign emitted %d of %d points", len(want), ref.cold.summary.Points)
	}
	ref.check(want, false, rep)
	jobs, metrics, err := campaignJobs(want)
	if err != nil {
		return nil, err
	}

	loop := c
	if c.traced {
		loop.dur /= 3
	}
	its, err := iterate(loop, false, camp, jobs, want, filepath.Join(root, "daemon"), rep)
	if err != nil {
		return nil, err
	}
	pick := func(its []iteration, f func(it *iteration) float64) float64 {
		vals := make([]float64, len(its))
		for i := range its {
			vals[i] = f(&its[i])
		}
		return median(vals)
	}
	if !c.traced {
		ipc, err := campaignIPCRatio(want)
		if err != nil {
			rep.fail("%v", err)
		}
		var resubs []float64
		for _, it := range its {
			for _, s := range it.resubs {
				resubs = append(resubs, s.total.Seconds())
			}
		}
		rep.set("refs_per_s", pick(its, func(it *iteration) float64 {
			return float64(it.coldEng.RefsSimulated) / it.cold.total.Seconds()
		}))
		rep.set("setup_s", pick(its, func(it *iteration) float64 { return it.setup.Seconds() }))
		rep.set("heap_peak_mb", pick(its, func(it *iteration) float64 { return it.heapPeak }))
		rep.set("ipc_ratio_pct", ipc)
		rep.set("campaign_s", pick(its, func(it *iteration) float64 { return it.cold.total.Seconds() }))
		rep.set("first_record_ms", pick(its, func(it *iteration) float64 { return ms(it.cold.firstPoint) }))
		rep.set("resubmit_s", median(resubs))
		return rep, nil
	}

	fleet, err := iterate(loop, true, camp, jobs, want, filepath.Join(root, "fleet"), rep)
	if err != nil {
		return nil, err
	}
	var gets, puts, dispatches, durable []float64
	for _, it := range its {
		gets = append(gets, it.gets...)
		puts = append(puts, it.puts...)
		for _, s := range it.durable {
			durable = append(durable, ms(s.total))
		}
	}
	for _, it := range fleet {
		dispatches = append(dispatches, it.dispatchMS...)
	}
	rep.set("experiments.sims", pick(its, func(it *iteration) float64 { return float64(it.coldEng.Sims + it.resubEng.Sims) }))
	rep.set("experiments.memo_hits", pick(its, func(it *iteration) float64 { return float64(it.coldEng.MemoHits + it.resubEng.MemoHits) }))
	rep.set("experiments.disk_hits", pick(its, func(it *iteration) float64 { return float64(it.coldEng.DiskHits + it.resubEng.DiskHits) }))
	rep.set("experiments.store_get_ms_p50", quantile(gets, 0.5))
	rep.set("experiments.store_get_ms_p90", quantile(gets, 0.9))
	rep.set("experiments.store_put_ms_p50", quantile(puts, 0.5))
	rep.set("experiments.store_put_ms_p90", quantile(puts, 0.9))
	rep.set("service.submit_ms", pick(its, func(it *iteration) float64 { return ms(it.cold.submit) }))
	rep.set("service.stream_ttfb_ms", pick(its, func(it *iteration) float64 { return ms(it.cold.ttfb) }))
	rep.set("service.handler_busy_s", pick(its, func(it *iteration) float64 { return it.busy.Seconds() }))
	rep.set("service.dispatch_ms_p50", quantile(dispatches, 0.5))
	rep.set("service.dispatch_ms_p90", quantile(dispatches, 0.9))
	rep.set("service.dispatches", pick(fleet, func(it *iteration) float64 { return float64(it.posts) }))
	rep.set("service.redispatches", pick(fleet, func(it *iteration) float64 { return float64(it.repeats) }))
	rep.set("service.worker_busy_frac", pick(fleet, func(it *iteration) float64 { return it.workerBusy }))
	rep.set("sweep.records", pick(its, func(it *iteration) float64 { return float64(it.cold.records) }))
	rep.set("sweep.record_bytes", pick(its, func(it *iteration) float64 { return float64(it.cold.bytes) }))
	rep.set("sweep.durable_resubmit_ms", median(durable))
	rep.set("runtime.allocs_per_ref", pick(its, func(it *iteration) float64 {
		return ratio(float64(it.mallocs), float64(it.coldEng.RefsSimulated))
	}))
	rep.set("runtime.gc_pause_ms", pick(its, func(it *iteration) float64 { return ms(it.gcPause) }))
	return rep, campaignSimLayers(loop, jobs, metrics, rep)
}

// iterate runs the campaign on fresh deployments under dir, at least once
// and until c.dur has elapsed, and checks every stream against want.
func iterate(c runConfig, fleet bool, camp sweep.Campaign, jobs []experiments.Job, want [][]byte, dir string, rep *report) ([]iteration, error) {
	var its []iteration
	start := time.Now()
	for len(its) == 0 || time.Since(start) < c.dur {
		it, err := runOnce(c, fleet, camp, jobs, filepath.Join(dir, fmt.Sprint(len(its))))
		if err != nil {
			return nil, err
		}
		it.check(want, fleet, rep)
		it.dropRecords()
		its = append(its, it)
	}
	return its, nil
}

// dropRecords releases a checked iteration's records and keeps its times
// and counts. Kept, the records of every stream of a run would grow the
// live heap, and heap_peak_mb with it, by the number of iterations run.
func (it *iteration) dropRecords() {
	it.cold.points, it.cold.summary = nil, sweep.Summary{}
	for _, ss := range [][]stream{it.durable, it.resubs} {
		for i := range ss {
			ss[i].points, ss[i].summary = nil, sweep.Summary{}
		}
	}
}

// campaignJobs returns the run behind each point record and the metrics
// the record carries.
func campaignJobs(want [][]byte) ([]experiments.Job, []sweep.Metrics, error) {
	var jobs []experiments.Job
	var metrics []sweep.Metrics
	for _, raw := range want {
		var rec sweep.PointRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, nil, err
		}
		jobs = append(jobs, rec.Point.Job())
		metrics = append(metrics, rec.Metrics)
	}
	return jobs, metrics, nil
}

// campaignSimLayers traces the simulator over the campaign's runs and
// checks each traced result against the metrics its point record carries.
func campaignSimLayers(c runConfig, jobs []experiments.Job, metrics []sweep.Metrics, rep *report) error {
	var records []float64
	for i := 0; i < setupRepeats; i++ {
		rec, _ := materialize(jobs)
		records = append(records, rec.Seconds())
	}
	rep.set("trace.materialize_s", median(records))
	return traceJobs(c, jobs, func(i int, got sim.Result) string {
		m := metrics[i]
		return sameResult(sim.Result{
			IPC: m.IPC, Cycles: m.Cycles, Coverage: m.Coverage, MispredRate: m.MispredRate,
			Accuracy: m.Accuracy, AvgBandwidthGBps: m.AvgBandwidthGBps, PeakBandwidth: m.PeakBandwidth,
		}, sim.Result{
			IPC: got.IPC, Cycles: got.Cycles, Coverage: got.Coverage, MispredRate: got.MispredRate,
			Accuracy: got.Accuracy, AvgBandwidthGBps: got.AvgBandwidthGBps, PeakBandwidth: got.PeakBandwidth,
		})
	}, rep)
}

// campaignIPCRatio is ipcRatioPct over a campaign's records: the geometric
// mean of every dspatch+spp point's per-lane speedup, in percent.
func campaignIPCRatio(points [][]byte) (float64, error) {
	var logSum float64
	n := 0
	for _, raw := range points {
		var rec sweep.PointRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return 0, err
		}
		if rec.Point.L2 != string(sim.PFDSPatchSPP) {
			continue
		}
		for _, s := range rec.Speedup {
			if s <= 0 {
				return 0, fmt.Errorf("point %d has speedup %v", rec.Index, s)
			}
			logSum += math.Log(s)
			n++
		}
	}
	if n == 0 {
		return 0, errors.New("campaign has no dspatch+spp point")
	}
	return 100 * math.Exp(logSum/float64(n)), nil
}
