// Command benchmark is the repository's benchmark: it runs one named
// workload for a fixed time in this process, checks the outputs, and prints
// every end-to-end metric (or, with --trace 1, every per-layer metric) by
// name and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 96, "failed": 0, "metrics": {"refs_per_s": {"value": 1.2e6, "unit": "1/s"}, ...}}
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash benchmark/run.sh --workload sim-spatial --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64         // --seed; inputs are derived from it alone
	dur     time.Duration // how long the timed loop measures
	traced  bool          // per-layer run instead of the end-to-end one
	workers int           // simulation workers: min(nproc, GOMAXPROCS)
	workdir string        // scratch space for daemon stores
}

// report is a workload's outcome: metric values by name, the number of
// operations attempted and failed, and every output check that failed.
type report struct {
	values    map[string]float64
	attempted int
	failed    int
	problems  []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// fail records a failed output check; the run then reports correct=false.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: "+workloadNames())
	seed := fl.Int64("seed", 1, "workload seed (>= 0); the same seed gives the same inputs")
	seconds := fl.Float64("seconds", 10, "how long the timed loop measures")
	traced := fl.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	workdir := fl.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for daemon stores and journals")
	src := fl.String("src", ".", "repository root, whose sources the environment line fingerprints")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].Name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	case *seed < 0:
		fmt.Fprintf(stderr, "benchmark: --seed must be >= 0, got %d\n", *seed)
		return 2
	case *seconds <= 0 || math.IsInf(*seconds, 0) || math.IsNaN(*seconds):
		fmt.Fprintf(stderr, "benchmark: --seconds must be positive, got %v\n", *seconds)
		return 2
	case *traced != 0 && *traced != 1:
		fmt.Fprintf(stderr, "benchmark: --trace must be 0 or 1, got %d\n", *traced)
		return 2
	}
	cfg := runConfig{
		seed:    *seed,
		dur:     time.Duration(*seconds * float64(time.Second)),
		traced:  *traced == 1,
		workers: min(runtime.NumCPU(), runtime.GOMAXPROCS(0)),
		workdir: *workdir,
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	rep, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
		return 1
	}

	env := environment(cfg, *src)
	env["workload"] = w.Name
	envLine, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "env %s\n", envLine)

	want := endToEnd
	if cfg.traced {
		want = perLayer
	}
	out := result{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]value{}}
	for _, m := range want {
		v, ok := rep.values[m.Name]
		switch {
		case !ok:
			rep.fail("metric %s was not measured", m.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			rep.fail("metric %s is not finite", m.Name)
			v = 0
		}
		out.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
		fmt.Fprintf(stdout, "metric %-32s %.6g %s\n", m.Name, v, m.Unit)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stdout, "check failed: %s\n", p)
	}
	out.Correct = len(rep.problems) == 0 && rep.failed == 0
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Correct = false
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

// environment describes the host shape and the code a result came from, so
// a number measured on a different host shape is visibly not comparable.
func environment(cfg runConfig, src string) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"seed":          cfg.seed,
		"traced":        cfg.traced,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"sim_workers":   cfg.workers,
		"go_version":    runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"commit":        commit,
		"source_sha256": sourceDigest(src),
		"caches":        "every simulated machine starts with empty caches; statistics include the warm-up",
		"validation":    "the simulated timing model is not validated against hardware, so no error figure is given",
	}
}

// sourceDigest hashes the Go sources and go.mod under root, so a result can
// be tied to its code even in a checkout that is not a git repository.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// median returns the middle of xs (the mean of the two middles for an even
// count); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
