package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"dspatch/internal/experiments"
	"dspatch/internal/sim"
	"dspatch/internal/trace"
)

const (
	// spatialRefs and irregularRefs are per lane. They keep one roster pass
	// near a third of a second on two cores, so a run takes dozens of passes.
	spatialRefs   = 50_000
	irregularRefs = 25_000

	// setupRepeats is how often the traced run records the traces;
	// trace.materialize_s is the median.
	setupRepeats = 3
	// resubmitRepeats is how often a pass resubmits the roster to the warm
	// memo; resubmit_s is the median.
	resubmitRepeats = 101
)

func runSpatial(c runConfig) (*report, error) {
	jobs, err := roster(sim.DefaultST(), spatialRefs, c.seed,
		[][]string{{"tpcc"}, {"linpack"}, {"parsec-stream"}},
		[]sim.PF{sim.PFNone, sim.PFSPP, sim.PFDSPatch, sim.PFDSPatchSPP})
	if err != nil {
		return nil, err
	}
	return runSim(c, jobs)
}

func runIrregularMP(c runConfig) (*report, error) {
	jobs, err := roster(sim.DefaultMP(), irregularRefs, c.seed,
		[][]string{
			{"ll-walk-large", "tree-search-deep", "hash-probe-sparse", "mcf"},
			{"mcf", "hash-probe-sparse", "tree-search-deep", "ll-walk-large"},
		},
		[]sim.PF{sim.PFNone, sim.PFDSPatchSPP})
	if err != nil {
		return nil, err
	}
	return runSim(c, jobs)
}

// roster crosses workload mixes with prefetchers on the base machine. The
// generator seed is seed+1: sweep points treat seed 0 as "use the default".
func roster(base sim.Options, refs int, seed int64, mixes [][]string, pfs []sim.PF) ([]experiments.Job, error) {
	var jobs []experiments.Job
	for _, mix := range mixes {
		ws := make([]trace.Workload, len(mix))
		for i, name := range mix {
			w, ok := trace.ByName(name)
			if !ok {
				return nil, fmt.Errorf("workload %q is not in the roster", name)
			}
			ws[i] = w
		}
		for _, pf := range pfs {
			o := base
			o.Refs, o.Seed, o.L2 = refs, seed+1, pf
			jobs = append(jobs, experiments.Job{Workloads: ws, Opt: o})
		}
	}
	return jobs, nil
}

// simRefs is the number of references a roster simulates, lanes included.
func simRefs(jobs []experiments.Job) int {
	n := 0
	for _, j := range jobs {
		n += j.Opt.Refs * len(j.Workloads)
	}
	return n
}

// materialize drops every recorded trace, records each lane stream the
// jobs replay, then reads each once so its pages are touched. It returns
// the recording time and the whole set-up time.
func materialize(jobs []experiments.Job) (record, total time.Duration) {
	trace.ResetShared()
	type stream struct {
		name string
		seed int64
	}
	start := time.Now()
	var gens []trace.Generator
	var lens []int
	seen := map[stream]bool{}
	for _, j := range jobs {
		for i, w := range j.Workloads {
			s := stream{w.Name, sim.LaneSeed(j.Opt.Seed, i)}
			if seen[s] {
				continue
			}
			seen[s] = true
			gens = append(gens, trace.Replay(w, s.seed, j.Opt.Refs))
			lens = append(lens, j.Opt.Refs)
		}
	}
	record = time.Since(start)
	var ref trace.Ref
	for i, g := range gens {
		for k := 0; k < lens[i]; k++ {
			g.Next(&ref)
		}
	}
	return record, time.Since(start)
}

// ipcRatioPct is the geometric mean, over every lane of every dspatch+spp
// job, of its IPC divided by the same lane's IPC without an L2 prefetcher,
// in percent.
func ipcRatioPct(jobs []experiments.Job, res []sim.Result) (float64, error) {
	base := map[string]sim.Result{}
	for i, j := range jobs {
		if j.Opt.L2 == sim.PFNone {
			base[mixKey(j)] = res[i]
		}
	}
	var logSum float64
	n := 0
	for i, j := range jobs {
		if j.Opt.L2 != sim.PFDSPatchSPP {
			continue
		}
		b, ok := base[mixKey(j)]
		if !ok {
			return 0, fmt.Errorf("no baseline for %s", jobLabel(j))
		}
		for lane := range res[i].IPC {
			if res[i].IPC[lane] <= 0 || b.IPC[lane] <= 0 {
				return 0, fmt.Errorf("%s lane %d has no IPC", jobLabel(j), lane)
			}
			logSum += math.Log(res[i].IPC[lane] / b.IPC[lane])
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("roster has no dspatch+spp job")
	}
	return 100 * math.Exp(logSum/float64(n)), nil
}

func mixKey(j experiments.Job) string {
	k := ""
	for _, w := range j.Workloads {
		k += w.Name + "\x00"
	}
	return k
}

// runSim measures a roster through the experiment engine. Each pass sets up
// (records the traces) outside its timed part and resets the memo, so every
// pass simulates every job over warm traces.
func runSim(c runConfig, jobs []experiments.Job) (*report, error) {
	rep := newReport()
	if c.traced {
		var records []float64
		for i := 0; i < setupRepeats; i++ {
			rec, _ := materialize(jobs)
			records = append(records, rec.Seconds())
		}
		return rep, simLayers(c, jobs, rep, records)
	}
	ctx := context.Background()
	refs := float64(simRefs(jobs))
	var setups, rates, walls, firsts, resubs, peaks []float64
	var want []sim.Result
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < c.dur {
		// Setting up afresh lets the passes sample different memory
		// placements of the traces; each starts from a collected heap.
		_, setup := materialize(jobs)
		setups = append(setups, setup.Seconds())
		runtime.GC()
		heap := startHeapPeak()
		experiments.ResetMemo()
		t := time.Now()
		first, err := experiments.RunJobs(ctx, jobs[:1], c.workers)
		if err != nil {
			return nil, err
		}
		firsts = append(firsts, ms(time.Since(t)))

		experiments.ResetMemo()
		t = time.Now()
		res, err := experiments.RunJobs(ctx, jobs, c.workers)
		if err != nil {
			return nil, err
		}
		wall := time.Since(t)
		walls = append(walls, wall.Seconds())
		rates = append(rates, refs/wall.Seconds())

		var again []float64
		for k := 0; k < resubmitRepeats; k++ {
			t = time.Now()
			memo, err := experiments.RunJobs(ctx, jobs, c.workers)
			if err != nil {
				return nil, err
			}
			again = append(again, time.Since(t).Seconds())
			if msg := sameResult(res[0], memo[0]); msg != "" {
				rep.fail("memo-served %s differs: %s", jobLabel(jobs[0]), msg)
			}
		}
		resubs = append(resubs, median(again))
		peaks = append(peaks, heap.stop())

		// Every pass must reproduce the first one bit for bit, and the job
		// run alone must match its run inside the roster.
		if want == nil {
			want = res
		}
		rep.attempted += len(jobs) + 1
		for i := range jobs {
			if msg := sameResult(want[i], res[i]); msg != "" {
				rep.failed++
				rep.fail("pass %d: %s differs from pass 0: %s", len(walls)-1, jobLabel(jobs[i]), msg)
			}
		}
		if msg := sameResult(res[0], first[0]); msg != "" {
			rep.failed++
			rep.fail("%s alone differs from its roster run: %s", jobLabel(jobs[0]), msg)
		}
	}
	ipc, err := ipcRatioPct(jobs, want)
	if err != nil {
		rep.fail("%v", err)
	}
	rep.set("refs_per_s", median(rates))
	rep.set("setup_s", median(setups))
	rep.set("heap_peak_mb", median(peaks))
	rep.set("ipc_ratio_pct", ipc)
	rep.set("campaign_s", median(walls))
	rep.set("first_record_ms", median(firsts))
	rep.set("resubmit_s", median(resubs))
	return rep, nil
}

// simLayers is the traced run of a simulator workload.
func simLayers(c runConfig, jobs []experiments.Job, rep *report, records []float64) error {
	rep.set("trace.materialize_s", median(records))

	// One untraced pass through the engine: the reference results, and the
	// engine's and the Go runtime's counters around it.
	experiments.ResetMemo()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := experiments.EngineCounters()
	want, err := experiments.RunJobs(context.Background(), jobs, c.workers)
	if err != nil {
		return err
	}
	c1 := experiments.EngineCounters()
	runtime.ReadMemStats(&m1)
	refs := float64(simRefs(jobs))
	rep.set("runtime.allocs_per_ref", float64(m1.Mallocs-m0.Mallocs)/refs)
	rep.set("runtime.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
	rep.set("experiments.sims", float64(c1.Sims-c0.Sims))
	rep.set("experiments.memo_hits", float64(c1.MemoHits-c0.MemoHits))
	rep.set("experiments.disk_hits", float64(c1.DiskHits-c0.DiskHits))

	// The simulator workloads run no daemon, store or campaign stream.
	for _, name := range []string{
		"experiments.store_get_ms_p50", "experiments.store_get_ms_p90",
		"experiments.store_put_ms_p50", "experiments.store_put_ms_p90",
		"service.submit_ms", "service.stream_ttfb_ms", "service.handler_busy_s",
		"service.dispatch_ms_p50", "service.dispatch_ms_p90", "service.dispatches",
		"service.redispatches", "service.worker_busy_frac",
		"sweep.records", "sweep.record_bytes", "sweep.durable_resubmit_ms",
	} {
		rep.set(name, 0)
	}
	return traceJobs(c, jobs, func(i int, got sim.Result) string { return sameResult(want[i], got) }, rep)
}

// heapPeak samples the Go heap's objects every 2 ms until stopped. They
// include garbage not yet collected, so the peak is where GC pacing lets the
// heap grow to. The live heap alone (/gc/heap/live:bytes) changes only when
// a GC ends; on the 4-core workload its per-pass peak then depends on
// whether a GC ends while the machines are alive, and it jumped between
// 12 MB and 20 MB from one run of the same code to the next.
type heapPeak struct {
	quit chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampling and returns the peak in MB (10^6 bytes).
func (h *heapPeak) stop() float64 {
	close(h.quit)
	<-h.done
	return float64(h.peak) / 1e6
}
