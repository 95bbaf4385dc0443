package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dspatch/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_results.json from the current simulator")

// The golden pins fingerprint complete simulation outcomes: every Result
// float by bit pattern, the cycle count, every port's coverage counters,
// every cache level's Stats and the prefetcher telemetry. They are the
// proof that an optimisation of the simulator is behaviour-preserving: any
// change to a timing model, a tag store, the prefetch drain, a prefetcher
// model or the trace replay shows up as a fingerprint mismatch. Regenerate
// only for an intentional behaviour change (go test ./internal/sim
// -run '^TestEquivalence' -update-golden), bump ResultVersion with it, and
// say why in the commit.
const goldenPath = "testdata/golden_results.json"

// goldenCase is one pinned simulation.
type goldenCase struct {
	name string
	ws   []trace.Workload
	opt  Options
}

// goldenMixes are the two 4-core mixes of the multi-programmed pins: one
// workload per category, so the shared LLC and DRAM see heterogeneous
// streams.
func goldenMixes() [][]trace.Workload {
	first := func(c trace.Category) trace.Workload { return trace.ByCategory(c)[0] }
	return [][]trace.Workload{
		{first(trace.Client), first(trace.HPC), first(trace.ISPEC06), first(trace.Cloud)},
		{first(trace.Server), first(trace.FSPEC06), first(trace.FSPEC17), first(trace.SYSmark)},
	}
}

// goldenGroups returns the pinned cases grouped by workload mix. Members of
// a group share one trace identity, so each group also runs as one RunBatch.
// Single-thread: every category's first workload under the full prefetcher
// roster. Multi-programmed: both mixes under the baseline, SPP, DSPatch and
// DSPatch+SPP.
func goldenGroups() [][]goldenCase {
	var groups [][]goldenCase
	for _, cat := range trace.Categories {
		w := trace.ByCategory(cat)[0]
		var g []goldenCase
		for _, pf := range AllPFs {
			opt := DefaultST()
			opt.Refs = 6_000
			opt.L2 = pf
			opt.CollectStats = true
			g = append(g, goldenCase{"st/" + w.Name + "/" + string(pf), []trace.Workload{w}, opt})
		}
		groups = append(groups, g)
	}
	for i, mix := range goldenMixes() {
		var g []goldenCase
		for _, pf := range []PF{PFNone, PFSPP, PFDSPatch, PFDSPatchSPP} {
			opt := DefaultMP()
			opt.Refs = 4_000
			opt.L2 = pf
			opt.CollectStats = true
			g = append(g, goldenCase{fmt.Sprintf("mp/mix%d/%s", i+1, pf), mix, opt})
		}
		groups = append(groups, g)
	}
	return groups
}

// stepMachine drives a fresh machine through its own cursors to exhaustion
// and returns it with its finished Result, so the caller can read the cache
// counters the Result does not carry.
func stepMachine(ws []trace.Workload, opt Options) (*machine, Result) {
	m := newMachine(ws, opt, true)
	var ref trace.Ref
	for m.step(&ref) {
	}
	return m, m.finish()
}

// fingerprint hashes everything observable about a finished machine.
func fingerprint(m *machine, r Result) string {
	h := sha256.New()
	put := func(vs ...uint64) {
		for _, v := range vs {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	putF := func(fs ...float64) {
		for _, f := range fs {
			put(math.Float64bits(f))
		}
	}
	putStruct := func(v any) {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
	put(uint64(len(r.IPC)))
	putF(r.IPC...)
	put(r.Cycles)
	putF(r.Coverage, r.MispredRate, r.Accuracy, r.AvgBandwidthGBps, r.PeakBandwidth)
	putF(r.Pollution[:]...)
	for _, ps := range r.PortStats {
		putStruct(ps)
	}
	for _, l := range m.lanes {
		putStruct(l.ad.port.L1().Stats())
		putStruct(l.ad.port.L2().Stats())
	}
	putStruct(m.lanes[0].ad.port.SharedLLC().Stats())
	js, err := json.Marshal(r.Prefetchers) // map keys marshal sorted
	if err != nil {
		panic(err)
	}
	h.Write(js)
	return hex.EncodeToString(h.Sum(nil))
}

// resultsEqual compares two Results bit for bit, telemetry included.
func resultsEqual(a, b Result) bool {
	return coreMetricsEqual(a, b) && reflect.DeepEqual(a.Prefetchers, b.Prefetchers)
}

// checkConservation asserts the laws that hold by the metrics' definitions:
// coverage and accuracy are ratios of a count to a sum that includes it, and
// each DSPatch trigger selects a pattern for one or two page halves, samples
// the bandwidth quartile once and lands in one degree bucket. The
// misprediction rate has no upper bound (unused prefetches are not part of
// its denominator), and the average bandwidth counts CAS commands scheduled
// after the last core retires, so neither is capped here.
func checkConservation(t *testing.T, name string, r Result) {
	t.Helper()
	unit := func(label string, v float64) {
		if !(v >= 0 && v <= 1) {
			t.Errorf("%s: %s = %v, outside [0,1]", name, label, v)
		}
	}
	unit("coverage", r.Coverage)
	unit("accuracy", r.Accuracy)
	if !(r.MispredRate >= 0) {
		t.Errorf("%s: mispred rate = %v, negative", name, r.MispredRate)
	}
	for _, st := range r.Prefetchers {
		if !strings.HasPrefix(st.Name, "dspatch") {
			continue
		}
		c := st.Counters
		trig := c["triggers"]
		sel := c["sel_covp"] + c["sel_accp"] + c["sel_none"]
		if sel < trig || sel > 2*trig {
			t.Errorf("%s: %s selected %d halves for %d triggers, want [triggers, 2*triggers]", name, st.Name, sel, trig)
		}
		if c["sel_covp"] != c["sel_covp_low_bw"]+c["sel_covp_q2"]+c["sel_covp_always"] ||
			c["sel_accp"] != c["sel_accp_q2_covp_bad"]+c["sel_accp_q3"] ||
			c["sel_none"] != c["sel_none_q3_accp_bad"]+c["sel_none_q3_throttle"] {
			t.Errorf("%s: %s selection totals differ from their per-reason sums: %v", name, st.Name, c)
		}
		for _, hist := range []string{"bw_quartile", "prefetch_degree"} {
			if got := st.Histograms[hist].Total(); got != trig {
				t.Errorf("%s: %s %s histogram holds %d samples for %d triggers", name, st.Name, hist, got, trig)
			}
		}
		if c["pb_hits"] > c["pb_lookups"] {
			t.Errorf("%s: %s pb_hits %d > pb_lookups %d", name, st.Name, c["pb_hits"], c["pb_lookups"])
		}
	}
}

// goldenClass sorts a pinned case, by its name, into the test that checks
// it: the multi-programmed mixes, the no-L2-prefetcher baseline, the DSPatch
// and SPP configurations, or the other prefetcher models.
func goldenClass(name string) string {
	pf := PF(path.Base(name))
	switch {
	case strings.HasPrefix(name, "mp/"):
		return "mp"
	case pf == PFNone:
		return "baseline"
	case strings.HasPrefix(string(pf), string(PFDSPatch)) || pf == PFSPP || pf == PFESPP:
		return "single"
	default:
		return "models"
	}
}

// TestEquivalenceBaseline checks the no-L2-prefetcher path (stride L1 only),
// which every figure's baseline runs through, for every category.
func TestEquivalenceBaseline(t *testing.T) { checkGolden(t, "baseline") }

// TestEquivalenceSingleThread checks DSPatch, its adjuncts and ablations,
// SPP and eSPP on the single-thread machine for every category.
func TestEquivalenceSingleThread(t *testing.T) { checkGolden(t, "single") }

// TestEquivalenceModelRoster checks the remaining prefetcher models — BOP,
// eBOP, SMS, AMPM, the streamer and their SPP composites — on the
// single-thread machine for every category.
func TestEquivalenceModelRoster(t *testing.T) { checkGolden(t, "models") }

// TestEquivalenceMultiProgrammed checks the two 4-core DefaultMP mixes, where
// ports contend for the shared LLC and DRAM.
func TestEquivalenceMultiProgrammed(t *testing.T) { checkGolden(t, "mp") }

// checkGolden checks every pinned case of one class three ways — a machine
// stepped in-package, Run, and one RunBatch per workload mix must agree bit
// for bit — then checks the conservation laws and compares the fingerprint
// with the committed pin. Workload mixes run as parallel subtests. With
// -update-golden it rewrites the class's pins and keeps the others.
func checkGolden(t *testing.T, class string) {
	var mu sync.Mutex
	got := map[string]string{}
	var groups [][]goldenCase
	cases := 0
	for _, g := range goldenGroups() {
		var sub []goldenCase
		for _, c := range g {
			if goldenClass(c.name) == class {
				sub = append(sub, c)
			}
		}
		if len(sub) > 0 {
			groups = append(groups, sub)
			cases += len(sub)
		}
	}
	t.Run("cases", func(t *testing.T) {
		for _, g := range groups {
			t.Run(path.Dir(g[0].name), func(t *testing.T) {
				t.Parallel()
				opts := make([]Options, len(g))
				for i, c := range g {
					opts[i] = c.opt
				}
				batch := RunBatch(g[0].ws, opts)
				for i, c := range g {
					m, want := stepMachine(c.ws, c.opt)
					if r := Run(c.ws, c.opt); !resultsEqual(r, want) {
						t.Errorf("%s: Run differs from the stepped machine\nrun:     %+v\nmachine: %+v", c.name, r, want)
					}
					if !resultsEqual(batch[i], want) {
						t.Errorf("%s: RunBatch differs from the stepped machine\nbatch:   %+v\nmachine: %+v", c.name, batch[i], want)
					}
					checkConservation(t, c.name, want)
					fp := fingerprint(m, want)
					mu.Lock()
					got[c.name] = fp
					mu.Unlock()
				}
			})
		}
	})

	// The pins of every class share one file.
	data, err := os.ReadFile(goldenPath)
	if err != nil && !(*updateGolden && os.IsNotExist(err)) {
		t.Fatalf("read golden pins (regenerate with -update-golden): %v", err)
	}
	all := map[string]string{}
	if len(data) > 0 {
		if err := json.Unmarshal(data, &all); err != nil {
			t.Fatalf("parse %s: %v", goldenPath, err)
		}
	}
	want := map[string]string{}
	for key, h := range all {
		if goldenClass(key) == class {
			want[key] = h
		}
	}

	if *updateGolden {
		// A failed check or a -run filter would pin a wrong or partial set.
		if t.Failed() || len(got) != cases {
			t.Fatalf("refusing to write %d of %d golden pins from a run that did not pass in full", len(got), cases)
		}
		for key := range want {
			delete(all, key)
		}
		for key, h := range got {
			all[key] = h
		}
		data, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d %s golden pins to %s", len(got), class, goldenPath)
		return
	}

	for key, h := range want {
		if got[key] == "" {
			t.Errorf("%s: case missing from the golden suite", key)
		} else if got[key] != h {
			t.Errorf("%s: result changed (golden %s…, got %s…)", key, h[:12], got[key][:12])
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: not pinned (regenerate with -update-golden)", key)
		}
	}
}
