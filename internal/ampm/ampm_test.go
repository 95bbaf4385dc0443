package ampm

import (
	"math/rand"
	"testing"

	"dspatch/internal/memaddr"
	"dspatch/internal/prefetch"
)

func acc(line uint64) prefetch.Access { return prefetch.Access{Line: memaddr.Line(line)} }

func TestDetectsUnitStride(t *testing.T) {
	a := New(DefaultConfig())
	a.Train(acc(0), nil, nil)
	a.Train(acc(1), nil, nil)
	out := a.Train(acc(2), nil, nil)
	found := false
	for _, r := range out {
		if r.Line == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("offsets 0,1,2 should predict 3; got %v", out)
	}
}

func TestDetectsStride2(t *testing.T) {
	a := New(DefaultConfig())
	a.Train(acc(10), nil, nil)
	a.Train(acc(12), nil, nil)
	out := a.Train(acc(14), nil, nil)
	found := false
	for _, r := range out {
		if r.Line == 16 {
			found = true
		}
	}
	if !found {
		t.Errorf("stride-2 should predict 16; got %v", out)
	}
}

func TestNoDuplicatePrefetches(t *testing.T) {
	a := New(DefaultConfig())
	a.Train(acc(0), nil, nil)
	a.Train(acc(1), nil, nil)
	first := a.Train(acc(2), nil, nil)
	second := a.Train(acc(2), nil, nil)
	if len(first) == 0 {
		t.Fatal("expected initial prediction")
	}
	for _, r := range second {
		for _, f := range first {
			if r.Line == f.Line {
				t.Errorf("duplicate prefetch %d", r.Line)
			}
		}
	}
}

func TestDegreeBound(t *testing.T) {
	a := New(DefaultConfig())
	// Dense page: many candidate strides.
	for i := 0; i < 20; i++ {
		a.Train(acc(uint64(i)), nil, nil)
	}
	out := a.Train(acc(20), nil, nil)
	if len(out) > a.cfg.Degree {
		t.Errorf("emitted %d > degree %d", len(out), a.cfg.Degree)
	}
}

func TestMapEviction(t *testing.T) {
	a := New(Config{Maps: 2, MaxStride: 4, Degree: 2})
	a.Train(acc(0), nil, nil)                   // page 0
	a.Train(acc(memaddr.LinesPage), nil, nil)   // page 1
	a.Train(acc(2*memaddr.LinesPage), nil, nil) // page 2 evicts page 0
	if e := a.lookup(memaddr.Page(0)); e != nil {
		t.Error("page 0 should have been evicted")
	}
	if e := a.lookup(memaddr.Page(2)); e == nil {
		t.Error("page 2 should be tracked")
	}
}

func TestStorage(t *testing.T) {
	if kb := float64(New(DefaultConfig()).StorageBits()) / 8192; kb > 2 {
		t.Errorf("AMPM storage %.2fKB too large", kb)
	}
}

// TestMapIndexMatchesLinearScan trains AMPM on a page-thrashing sequence —
// random jumps and same-page strides over more pages than it has maps — and
// after every Train checks the hashed lookup against a linear scan of the
// maps for every page of the working set.
func TestMapIndexMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := New(DefaultConfig())
	const pages = 96 // 1.5x the 64 maps: every phase evicts
	want := make([]*mapEntry, pages)
	page := uint64(0)
	for step := 0; step < 20_000; step++ {
		if rng.Intn(3) > 0 {
			page = uint64(rng.Intn(pages))
		}
		a.Train(acc(page*memaddr.LinesPage+uint64(rng.Intn(memaddr.LinesPage))), nil, nil)
		// One linear pass over the maps yields the entry every page of the
		// working set should resolve to.
		clear(want)
		for i := range a.maps {
			if a.maps[i].valid {
				want[a.maps[i].page] = &a.maps[i]
			}
		}
		for p, w := range want {
			if got := a.lookup(memaddr.Page(p)); got != w {
				t.Fatalf("step %d: lookup(%d) = %p, linear scan %p", step, p, got, w)
			}
		}
	}
}
