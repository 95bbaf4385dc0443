package main

import (
	"fmt"
	"math"
	"time"

	"dspatch/internal/cache"
	"dspatch/internal/core"
	"dspatch/internal/cpu"
	"dspatch/internal/dram"
	"dspatch/internal/experiments"
	"dspatch/internal/memaddr"
	"dspatch/internal/memsys"
	"dspatch/internal/prefetch"
	"dspatch/internal/sim"
	"dspatch/internal/spp"
	"dspatch/internal/trace"
)

// The traced run measures the simulator from outside: it wires the same
// machine sim.Run builds (trace replay cursors, cpu cores, a memsys system
// over DRAM, the L1 stride prefetcher and the L2 prefetcher under test)
// from the modules' public constructors, and times every call it makes into
// them. Its results must be bit-identical to the untraced engine's, which
// also proves the wiring matches.

// trainClock accumulates one prefetcher model's Train calls.
type trainClock struct {
	ns    time.Duration
	calls int64
	reqs  int64 // requests the calls appended
}

// layerClock accumulates the spans and counts of one traced pass.
type layerClock struct {
	refs        int64
	depLoads    int64
	next        time.Duration // trace cursor Next
	cpuSelf     time.Duration // cpu calls minus the memory accesses they make
	access      time.Duration // memsys Port.Access, Train included
	accessCalls int64
	stride      trainClock
	core        trainClock
	spp         trainClock
	wall        time.Duration // traced runs, construction to Result
	untraced    time.Duration // sim.Run of the same jobs
}

// timedPF wraps a prefetcher model and times its Train calls.
type timedPF struct {
	prefetch.Prefetcher
	c *trainClock
}

func (t timedPF) Train(a prefetch.Access, ctx prefetch.Context, dst []prefetch.Request) []prefetch.Request {
	n := len(dst)
	start := time.Now()
	dst = t.Prefetcher.Train(a, ctx, dst)
	t.c.ns += time.Since(start)
	t.c.calls++
	t.c.reqs += int64(len(dst) - n)
	return dst
}

// l2Factory builds the L2 prefetcher sim uses for pf, with each model's
// Train timed. Only the configurations the workloads run are supported.
func l2Factory(pf sim.PF, clk *layerClock) (func() prefetch.Prefetcher, error) {
	mkSPP := func() prefetch.Prefetcher { return timedPF{spp.New(spp.DefaultConfig()), &clk.spp} }
	mkCore := func() prefetch.Prefetcher { return timedPF{core.New(core.DefaultConfig()), &clk.core} }
	switch pf {
	case sim.PFNone, "":
		return nil, nil
	case sim.PFSPP:
		return mkSPP, nil
	case sim.PFDSPatch:
		return mkCore, nil
	case sim.PFDSPatchSPP:
		// SPP first, as in sim: the order sets the per-train issue budget.
		return func() prefetch.Prefetcher {
			return prefetch.NewComposite(string(sim.PFDSPatchSPP), mkSPP(), mkCore())
		}, nil
	}
	return nil, fmt.Errorf("traced run does not model prefetcher %q", pf)
}

type tracedLane struct {
	core  *cpu.Core
	gen   trace.Generator
	port  *memsys.Port
	mem   cpu.LoadFunc
	left  int
	base  memaddr.Line
	pc    memaddr.PC
	line  memaddr.Line
	write bool
}

// runTraced simulates j as sim.Run does, timing each layer into clk. It
// returns the Result and the memory system, whose counters the caller reads.
func runTraced(j experiments.Job, clk *layerClock) (sim.Result, *memsys.System, error) {
	opt := j.Opt
	if opt.NoL1Stride || opt.TrackPollution || opt.CollectStats || opt.SMSPHTEntries != 0 {
		return sim.Result{}, nil, fmt.Errorf("traced run does not model options %+v", opt)
	}
	l2f, err := l2Factory(opt.L2, clk)
	if err != nil {
		return sim.Result{}, nil, err
	}
	start := time.Now()
	d := dram.New(opt.DRAM)
	l1f := func() prefetch.Prefetcher {
		return timedPF{prefetch.NewStride(prefetch.DefaultStrideConfig()), &clk.stride}
	}
	sys := memsys.NewSystem(memsys.DefaultConfig(opt.LLCBytes), d, len(j.Workloads), l1f, l2f)
	lanes := make([]*tracedLane, len(j.Workloads))
	for i, w := range j.Workloads {
		l := &tracedLane{
			core: cpu.New(cpu.DefaultConfig()),
			gen:  trace.Replay(w, sim.LaneSeed(opt.Seed, i), opt.Refs),
			port: sys.Port(i),
			left: opt.Refs,
			base: memaddr.Line(uint64(i) << 36),
		}
		l.mem = func(issue uint64) uint64 {
			t := time.Now()
			done := l.port.Access(issue, l.pc, l.line, l.write)
			clk.access += time.Since(t)
			clk.accessCalls++
			return done
		}
		lanes[i] = l
	}

	var ref trace.Ref
	for {
		// The lane furthest behind in simulated time goes next, as in sim.
		var l *tracedLane
		for _, cand := range lanes {
			if cand.left > 0 && (l == nil || cand.core.Cycle() < l.core.Cycle()) {
				l = cand
			}
		}
		if l == nil {
			break
		}
		t0 := time.Now()
		l.gen.Next(&ref)
		t1 := time.Now()
		clk.next += t1.Sub(t0)
		before := clk.access
		l.core.Ops(ref.Gap)
		l.pc, l.line, l.write = ref.PC, ref.Line+l.base, ref.Write
		switch {
		case ref.Write:
			l.core.Store(l.mem)
		case ref.Dep:
			clk.depLoads++
			l.core.LoadAfter(l.mem)
		default:
			l.core.Load(l.mem)
		}
		clk.cpuSelf += time.Since(t1) - (clk.access - before)
		l.left--
		clk.refs++
	}

	res := sim.Result{PeakBandwidth: opt.DRAM.PeakBandwidthGBps()}
	var covered, uncovered, useful, unused uint64
	for _, l := range lanes {
		res.IPC = append(res.IPC, l.core.IPC())
		if c := l.core.Drain(); c > res.Cycles {
			res.Cycles = c
		}
		st := l.port.Stats()
		covered += st.Covered
		uncovered += st.Uncovered
		useful += l.port.UsefulPrefetches()
		unused += l.port.UnusedPrefetches()
		res.PortStats = append(res.PortStats, sim.PortStats{
			Coverage:         st,
			UsefulPrefetches: l.port.UsefulPrefetches(),
			UnusedPrefetches: l.port.UnusedPrefetches(),
		})
	}
	if den := covered + uncovered; den > 0 {
		res.Coverage = float64(covered) / float64(den)
		res.MispredRate = float64(unused) / float64(den)
	}
	if issued := useful + unused; issued > 0 {
		res.Accuracy = float64(useful) / float64(issued)
	}
	res.AvgBandwidthGBps = d.AvgBandwidthGBps(res.Cycles)
	clk.wall += time.Since(start)
	return res, sys, nil
}

// sameResult compares two results on the bits of every float and on every
// counter; it returns "" when they agree and the first difference otherwise.
func sameResult(want, got sim.Result) string {
	if len(want.IPC) != len(got.IPC) {
		return fmt.Sprintf("%d lanes, want %d", len(got.IPC), len(want.IPC))
	}
	for i := range want.IPC {
		if math.Float64bits(want.IPC[i]) != math.Float64bits(got.IPC[i]) {
			return fmt.Sprintf("lane %d IPC %v, want %v", i, got.IPC[i], want.IPC[i])
		}
	}
	floats := []struct {
		name      string
		want, got float64
	}{
		{"coverage", want.Coverage, got.Coverage},
		{"mispred rate", want.MispredRate, got.MispredRate},
		{"accuracy", want.Accuracy, got.Accuracy},
		{"avg bandwidth", want.AvgBandwidthGBps, got.AvgBandwidthGBps},
		{"peak bandwidth", want.PeakBandwidth, got.PeakBandwidth},
	}
	for _, f := range floats {
		if math.Float64bits(f.want) != math.Float64bits(f.got) {
			return fmt.Sprintf("%s %v, want %v", f.name, f.got, f.want)
		}
	}
	if want.Cycles != got.Cycles {
		return fmt.Sprintf("cycles %d, want %d", got.Cycles, want.Cycles)
	}
	if want.Pollution != got.Pollution {
		return fmt.Sprintf("pollution %v, want %v", got.Pollution, want.Pollution)
	}
	if len(want.PortStats) != len(got.PortStats) {
		return fmt.Sprintf("%d port snapshots, want %d", len(got.PortStats), len(want.PortStats))
	}
	for i := range want.PortStats {
		if want.PortStats[i] != got.PortStats[i] {
			return fmt.Sprintf("port %d counters %+v, want %+v", i, got.PortStats[i], want.PortStats[i])
		}
	}
	return ""
}

// modelCounts sums the simulated machine's counters over the dspatch+spp
// runs of a pass: the configuration whose IPC ratio is the headline.
type modelCounts struct {
	covered, uncovered, useful, unused uint64
	l1, l2, llc                        cache.Stats
	dram                               dram.Stats
	busCycles                          float64 // cycles x channels: busy_frac's denominator
}

func addCache(dst *cache.Stats, s cache.Stats) {
	dst.DemandAccesses += s.DemandAccesses
	dst.DemandHits += s.DemandHits
	dst.DemandMisses += s.DemandMisses
	dst.PrefetchFills += s.PrefetchFills
	dst.PrefetchHits += s.PrefetchHits
	dst.PrefetchUnused += s.PrefetchUnused
	dst.Evictions += s.Evictions
	dst.DirtyEvictions += s.DirtyEvictions
}

func (m *modelCounts) add(sys *memsys.System, lanes int, res sim.Result, opt sim.Options) {
	for i := 0; i < lanes; i++ {
		p := sys.Port(i)
		st := p.Stats()
		m.covered += st.Covered
		m.uncovered += st.Uncovered
		m.useful += p.UsefulPrefetches()
		m.unused += p.UnusedPrefetches()
		addCache(&m.l1, p.L1().Stats())
		addCache(&m.l2, p.L2().Stats())
	}
	addCache(&m.llc, sys.LLC().Stats())
	ds := sys.DRAM().Stats()
	m.dram.Reads += ds.Reads
	m.dram.Writes += ds.Writes
	m.dram.RowHits += ds.RowHits
	m.dram.RowMisses += ds.RowMisses
	m.dram.BusyCycles += ds.BusyCycles
	m.dram.QueueCycles += ds.QueueCycles
	m.busCycles += float64(res.Cycles) * float64(opt.DRAM.Channels)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func hitRatio(s cache.Stats) float64 {
	return ratio(float64(s.DemandHits), float64(s.DemandAccesses))
}

// metrics turns one traced pass into per-layer values. Times are per call
// or per simulated reference; counts are for the whole pass.
func (c *layerClock) metrics(m *modelCounts) map[string]float64 {
	refs := float64(c.refs)
	perRef := func(d time.Duration) float64 { return ratio(float64(d), refs) }
	trains := c.stride.ns + c.core.ns + c.spp.ns
	out := map[string]float64{
		"trace.next_ns":               perRef(c.next),
		"cpu.self_ns_per_ref":         perRef(c.cpuSelf),
		"cpu.dep_load_frac":           ratio(float64(c.depLoads), refs),
		"memsys.access_ns":            ratio(float64(c.access), float64(c.accessCalls)),
		"memsys.self_ns_per_ref":      perRef(c.access - trains),
		"sim.unattributed_ns_per_ref": perRef(c.wall - c.next - c.cpuSelf - c.access),
		"sim.trace_overhead_pct":      100 * (ratio(float64(c.wall), float64(c.untraced)) - 1),

		"memsys.coverage":           ratio(float64(m.covered), float64(m.covered+m.uncovered)),
		"memsys.prefetch_useful":    float64(m.useful),
		"memsys.prefetch_unused":    float64(m.unused),
		"memsys.prefetch_accuracy":  ratio(float64(m.useful), float64(m.useful+m.unused)),
		"cache.l1.hit_ratio":        hitRatio(m.l1),
		"cache.l2.hit_ratio":        hitRatio(m.l2),
		"cache.llc.hit_ratio":       hitRatio(m.llc),
		"cache.l2.prefetch_fills":   float64(m.l2.PrefetchFills),
		"cache.llc.prefetch_unused": float64(m.llc.PrefetchUnused),
		"dram.reads":                float64(m.dram.Reads),
		"dram.writes":               float64(m.dram.Writes),
		"dram.row_hit_ratio":        ratio(float64(m.dram.RowHits), float64(m.dram.RowHits+m.dram.RowMisses)),
		"dram.busy_frac":            ratio(float64(m.dram.BusyCycles), m.busCycles),
		"dram.queue_cycles_per_req": ratio(float64(m.dram.QueueCycles), float64(m.dram.Reads+m.dram.Writes)),
	}
	for _, t := range []struct {
		name string
		c    trainClock
		reqs bool
	}{{"prefetch.stride", c.stride, false}, {"core", c.core, true}, {"spp", c.spp, true}} {
		out[t.name+".train_ns"] = ratio(float64(t.c.ns), float64(t.c.calls))
		out[t.name+".train_calls"] = float64(t.c.calls)
		if t.reqs {
			out[t.name+".requests_per_train"] = ratio(float64(t.c.reqs), float64(t.c.calls))
		}
	}
	return out
}

// traceJobs runs every job untraced (sim.Run) and traced, pass after pass
// until c.dur has elapsed, and sets each simulator-layer metric to its
// median over the passes. check compares the first pass's traced result
// with the untraced engine's output for job i; a difference fails the run.
func traceJobs(c runConfig, jobs []experiments.Job, check func(i int, got sim.Result) string, rep *report) error {
	var passes []map[string]float64
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < c.dur {
		clk := &layerClock{}
		var counts modelCounts
		for i, j := range jobs {
			t := time.Now()
			sim.Run(j.Workloads, j.Opt)
			clk.untraced += time.Since(t)
			got, sys, err := runTraced(j, clk)
			if err != nil {
				return err
			}
			if len(passes) == 0 {
				rep.attempted++
				if msg := check(i, got); msg != "" {
					rep.failed++
					rep.fail("traced run of %s differs from the untraced one: %s", jobLabel(j), msg)
				}
			}
			if j.Opt.L2 == sim.PFDSPatchSPP {
				counts.add(sys, len(j.Workloads), got, j.Opt)
			}
		}
		passes = append(passes, clk.metrics(&counts))
	}
	for name := range passes[0] {
		vals := make([]float64, len(passes))
		for i, p := range passes {
			vals[i] = p[name]
		}
		rep.set(name, median(vals))
	}
	return nil
}

func jobLabel(j experiments.Job) string {
	names := ""
	for i, w := range j.Workloads {
		if i > 0 {
			names += ","
		}
		names += w.Name
	}
	return fmt.Sprintf("%s/%s/seed %d", names, j.Opt.L2, j.Opt.Seed)
}
