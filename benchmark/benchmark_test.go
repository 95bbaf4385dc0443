package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestWorkloadsBrief runs every workload briefly, untraced and traced, and
// checks that each named metric is printed with its unit and that every
// output check passes.
func TestWorkloadsBrief(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+traced, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{
					"--workload", w.Name, "--seed", "7", "--seconds", "0.2", "--trace", traced,
					"--workdir", t.TempDir(), "--src", "..",
				}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit code %d; stderr:\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("checks failed (attempted %d, failed %d):\n%s", res.Attempted, res.Failed, stdout.String())
				}
				want := endToEnd
				if traced == "1" {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, want %q", m.Name, got.Unit, m.Unit)
					case traced == "0" && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if !strings.Contains(stdout.String(), `"nproc":`) {
					t.Errorf("no environment line:\n%s", stdout.String())
				}
			})
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step with
// the workload and metric tables here.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []metric   `json:"end_to_end"`
		PerLayer   []metric   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Command, []string{"bash", "benchmark/run.sh"}) || !reflect.DeepEqual(got.Paths, []string{"benchmark"}) {
		t.Errorf("command %q, paths %q", got.Command, got.Paths)
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of range", got.RunSeconds)
	}
	if len(got.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(got.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got.Workloads[i].Name != w.Name || got.Workloads[i].Why != w.Why {
			t.Errorf("workload %d is %+v, want %s: %s", i, got.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, at most 200", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(got.EndToEnd, endToEnd) {
		t.Errorf("end_to_end is\n%+v\nwant\n%+v", got.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(got.PerLayer, perLayer) {
		t.Errorf("per_layer is\n%+v\nwant\n%+v", got.PerLayer, perLayer)
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s has bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
	}
}
