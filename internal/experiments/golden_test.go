package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"dspatch/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_figures.json from the current experiments")

// The figure pins fingerprint every registered experiment's typed result, and
// two design ablations, at goldenScale. %+v renders floats as their shortest
// round-trip decimal, so the hash covers every bit of every value (NaN and -0
// included) and map fields render in key order. The pins prove that a
// refactor of the figure code — how jobs are built, batched, memoized or
// folded — leaves every result unchanged. Regenerate only for an intentional
// behaviour change (go test ./internal/experiments -run '^TestGoldenFigures$'
// -update-golden) and say why in the commit.
const goldenFigPath = "testdata/golden_figures.json"

// goldenScale is small enough to run every figure in a few seconds and large
// enough that the prefetchers train and the deltas are not all zero.
func goldenScale() Scale { return Scale{Refs: 3_000, PerCategory: 1, MPMixes: 2, Seed: 1} }

// goldenHash fingerprints one experiment value.
func goldenHash(v any) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%T %+v", v, v)))
	return hex.EncodeToString(h[:])
}

// goldenAblations are the AblationDelta variants the pins cover.
var goldenAblations = []sim.PF{sim.PFDSPatchNoCompress, sim.PFDSPatchSingleTrigger}

func TestGoldenFigures(t *testing.T) {
	s := goldenScale()
	got := map[string]string{}
	for _, e := range Experiments() {
		got[e.ID] = goldenHash(e.Run(s))
	}
	for _, pf := range goldenAblations {
		got["ablation/"+string(pf)] = goldenHash(AblationDelta(pf, s))
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFigPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d figure pins to %s", len(got), goldenFigPath)
		return
	}

	data, err := os.ReadFile(goldenFigPath)
	if err != nil {
		t.Fatalf("read figure pins (regenerate with -update-golden): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse %s: %v", goldenFigPath, err)
	}
	for id, h := range want {
		if got[id] == "" {
			t.Errorf("%s: pinned but no longer produced", id)
		} else if got[id] != h {
			t.Errorf("%s: result changed (golden %s…, got %s…)", id, h[:12], got[id][:12])
		}
	}
	for id := range got {
		if _, ok := want[id]; !ok {
			t.Errorf("%s: not pinned (regenerate with -update-golden)", id)
		}
	}
}
