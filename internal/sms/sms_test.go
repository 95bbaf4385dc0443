package sms

import (
	"math/rand"
	"testing"

	"dspatch/internal/memaddr"
	"dspatch/internal/prefetch"
)

func acc(pc, line uint64) prefetch.Access {
	return prefetch.Access{PC: memaddr.PC(pc), Line: memaddr.Line(line)}
}

// visitRegion touches the given in-region offsets of region r with the given
// trigger PC (first access) and a filler PC for the rest.
func visitRegion(s *SMS, r uint64, pc uint64, offsets []int) []prefetch.Request {
	var out []prefetch.Request
	for i, off := range offsets {
		p := pc
		if i > 0 {
			p = 0x999
		}
		out = s.Train(acc(p, r*RegionLines+uint64(off)), nil, nil)
		if i == 0 && len(out) > 0 {
			return out // trigger prediction
		}
	}
	return nil
}

func TestLearnsAndReplaysPattern(t *testing.T) {
	s := New(DefaultConfig())
	pattern := []int{3, 7, 11, 19}
	// Train: many regions with the same trigger PC and footprint. Each new
	// region allocation evicts older AT entries into the PHT.
	for r := uint64(0); r < 100; r++ {
		visitRegion(s, r, 0x400, pattern)
	}
	// A fresh region triggered by the same PC+offset should replay the bits.
	out := s.Train(acc(0x400, 1000*RegionLines+3), nil, nil)
	if len(out) != len(pattern)-1 {
		t.Fatalf("replay emitted %d prefetches, want %d", len(out), len(pattern)-1)
	}
	want := map[memaddr.Line]bool{}
	for _, off := range pattern[1:] {
		want[memaddr.Line(1000*RegionLines+off)] = true
	}
	for _, r := range out {
		if !want[r.Line] {
			t.Errorf("unexpected prefetch %d", r.Line)
		}
	}
}

func TestSignatureIncludesOffset(t *testing.T) {
	s := New(DefaultConfig())
	for r := uint64(0); r < 100; r++ {
		visitRegion(s, r, 0x400, []int{3, 7, 11})
	}
	// Same PC but a different trigger offset: no replay.
	out := s.Train(acc(0x400, 2000*RegionLines+5), nil, nil)
	if len(out) != 0 {
		t.Errorf("different trigger offset should not match, got %d", len(out))
	}
}

func TestSingleAccessRegionsStayInFilter(t *testing.T) {
	s := New(DefaultConfig())
	// Regions with one access never reach the AT and thus never the PHT.
	for r := uint64(0); r < 200; r++ {
		s.Train(acc(0x400, r*RegionLines+3), nil, nil)
	}
	out := s.Train(acc(0x400, 5000*RegionLines+3), nil, nil)
	if len(out) != 0 {
		t.Errorf("single-access regions should not train patterns, got %d", len(out))
	}
}

func TestSmallPHTForgets(t *testing.T) {
	big := New(DefaultConfig())
	small := New(IsoStorageConfig())
	// Train many distinct signatures (PCs), exceeding the small PHT.
	nSigs := uint64(3000)
	for r := uint64(0); r < 2*nSigs; r++ {
		pc := 0x1000 + (r % nSigs)
		visitRegion(big, r, pc, []int{1, 9, 17})
		visitRegion(small, r, pc, []int{1, 9, 17})
	}
	bigHits, smallHits := 0, 0
	for i := uint64(0); i < nSigs; i++ {
		pc := 0x1000 + i
		if out := big.Train(acc(pc, (100000+i)*RegionLines+1), nil, nil); len(out) > 0 {
			bigHits++
		}
		if out := small.Train(acc(pc, (200000+i)*RegionLines+1), nil, nil); len(out) > 0 {
			smallHits++
		}
	}
	if smallHits >= bigHits {
		t.Errorf("256-entry PHT hits (%d) should be fewer than 16K-entry (%d)", smallHits, bigHits)
	}
}

func TestStorageBudgets(t *testing.T) {
	fullKB := float64(New(DefaultConfig()).StorageBits()) / 8192
	isoKB := float64(New(IsoStorageConfig()).StorageBits()) / 8192
	if fullKB < 60 || fullKB > 120 {
		t.Errorf("full SMS storage = %.1fKB, want ≈88KB class", fullKB)
	}
	if isoKB > 5 {
		t.Errorf("iso-storage SMS = %.1fKB, want ≈3.5KB class", isoKB)
	}
}

func TestWithPHTEntries(t *testing.T) {
	c := DefaultConfig().WithPHTEntries(1024)
	if c.PHTEntries != 1024 || c.ATEntries != 64 {
		t.Errorf("WithPHTEntries mangled config: %+v", c)
	}
	if New(c) == nil {
		t.Fatal("nil SMS")
	}
}

func TestBadPHTGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Config{ATEntries: 4, FTEntries: 4, PHTEntries: 48, PHTWays: 16}) // 3 sets
}

// TestRegionIndexesMatchLinearScan trains SMS on a region-thrashing sequence
// — random jumps and same-region bursts over more regions than the
// accumulation and filter tables hold together — and after every Train
// checks both hashed lookups against linear scans of their tables for every
// region of the working set.
func TestRegionIndexesMatchLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := New(IsoStorageConfig())
	const regions = 160 // AT 64 + FT 32 = 96 live regions at most
	// One linear pass over each table per step yields the entry every
	// region of the working set should resolve to.
	wantAT := make([]*atEntry, regions)
	wantFT := make([]*ftEntry, regions)
	scan := func() {
		clear(wantAT)
		clear(wantFT)
		for i := range s.at {
			if s.at[i].valid {
				wantAT[s.at[i].reg] = &s.at[i]
			}
		}
		for i := range s.ft {
			if s.ft[i].valid {
				wantFT[s.ft[i].reg] = &s.ft[i]
			}
		}
	}
	reg := uint64(0)
	for step := 0; step < 20_000; step++ {
		if rng.Intn(3) > 0 {
			reg = uint64(rng.Intn(regions))
		}
		s.Train(acc(uint64(rng.Intn(4)), reg*RegionLines+uint64(rng.Intn(RegionLines))), nil, nil)
		scan()
		for r := region(0); r < regions; r++ {
			if got := s.lookupAT(r); got != wantAT[r] {
				t.Fatalf("step %d: lookupAT(%d) = %p, linear scan %p", step, r, got, wantAT[r])
			}
			if got := s.lookupFT(r); got != wantFT[r] {
				t.Fatalf("step %d: lookupFT(%d) = %p, linear scan %p", step, r, got, wantFT[r])
			}
		}
	}
}
