package cache

import (
	"math/rand"
	"testing"

	"dspatch/internal/memaddr"
)

// refCache is the straightforward scan-the-ways tag store the packed SWAR
// layout replaced, kept as the oracle the differential tests below hold the
// optimized Cache to: every Result, Victim, probe answer and Stats counter
// must match after every operation.
type refCache struct {
	cfg      Config
	ways     []refWay
	nways    int
	setMask  uint64
	tagShift uint
	stamp    uint64
	stats    Stats
}

// refWay is one cache line's tag state in the reference layout.
type refWay struct {
	tag      uint64
	lru      uint64 // last-touch stamp; 0 on low-priority fill
	valid    bool
	dirty    bool
	prefetch bool // filled by a prefetch and not yet demanded
	used     bool // demanded at least once since fill
}

func newRefCache(cfg Config) *refCache {
	sets := cfg.Sets()
	return &refCache{
		cfg:      cfg,
		ways:     make([]refWay, sets*cfg.Ways),
		nways:    cfg.Ways,
		setMask:  uint64(sets - 1),
		tagShift: uint(popShift(uint64(sets - 1))),
	}
}

func (c *refCache) set(l memaddr.Line) []refWay {
	i := uint64(l) & c.setMask
	return c.ways[i*uint64(c.nways) : (i+1)*uint64(c.nways)]
}

func (c *refCache) tag(l memaddr.Line) uint64 { return uint64(l) >> c.tagShift }

func (c *refCache) Access(l memaddr.Line, write bool) Result {
	c.stats.DemandAccesses++
	set := c.set(l)
	tag := c.tag(l)
	c.stamp++
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == tag {
			c.stats.DemandHits++
			r := Result{Hit: true}
			if w.prefetch && !w.used {
				r.FirstUseOfPrefetch = true
				c.stats.PrefetchHits++
			}
			w.prefetch = false
			w.used = true
			w.lru = c.stamp
			if write {
				w.dirty = true
			}
			return r
		}
	}
	c.stats.DemandMisses++
	return Result{}
}

func (c *refCache) Probe(l memaddr.Line) bool {
	set := c.set(l)
	tag := c.tag(l)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// Fill ignores opts.Absent: the reference always scans for a duplicate.
func (c *refCache) Fill(l memaddr.Line, opts FillOpts) Victim {
	set := c.set(l)
	tag := c.tag(l)
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == tag {
			w.dirty = w.dirty || opts.Dirty
			return Victim{}
		}
	}
	if opts.Prefetch {
		c.stats.PrefetchFills++
	}
	vi := c.pickVictim(set)
	w := &set[vi]
	var victim Victim
	if w.valid {
		line := memaddr.Line(w.tag<<c.tagShift | uint64(l)&c.setMask)
		victim = Victim{Valid: true, Line: line, WasPrefetched: w.prefetch && !w.used, Dirty: w.dirty}
		c.stats.Evictions++
		if w.dirty {
			c.stats.DirtyEvictions++
		}
		if w.prefetch && !w.used {
			c.stats.PrefetchUnused++
		}
	}
	c.stamp++
	*w = refWay{tag: tag, valid: true, dirty: opts.Dirty, prefetch: opts.Prefetch, lru: c.stamp}
	if opts.LowPriority {
		w.lru = 0
	}
	return victim
}

// pickVictim chooses the way to replace: first invalid; then, when
// DeadBlockAware, the LRU prefetched-but-unused line; otherwise plain LRU.
func (c *refCache) pickVictim(set []refWay) int {
	best, bestStamp := -1, ^uint64(0)
	for i := range set {
		if !set[i].valid {
			return i
		}
	}
	if c.cfg.DeadBlockAware {
		for i := range set {
			if set[i].prefetch && !set[i].used && set[i].lru < bestStamp {
				best, bestStamp = i, set[i].lru
			}
		}
		if best >= 0 {
			return best
		}
	}
	for i := range set {
		if set[i].lru < bestStamp {
			best, bestStamp = i, set[i].lru
		}
	}
	return best
}

func (c *refCache) Invalidate(l memaddr.Line) (present, dirty bool) {
	set := c.set(l)
	tag := c.tag(l)
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == tag {
			present, dirty = true, w.dirty
			w.valid = false
			return
		}
	}
	return
}

// cacheOp is one step of a differential sequence.
type cacheOp struct {
	kind     opKind
	line     memaddr.Line
	write    bool // Access: a store; fills: Dirty
	prefetch bool
	lowPri   bool
}

type opKind uint8

const (
	opAccess opKind = iota
	opProbe
	opFill
	opInvalidate
	// opProbeFill probes and, on a miss, fills with FillOpts.Absent — the
	// only way the sequence asserts absence, because the reference ignores
	// the flag and a false assertion would be a caller bug, not a cache one.
	opProbeFill
	numOpKinds
)

// diffCache runs ops against the optimized cache and the reference, failing
// on the first divergence of any answer or counter.
func diffCache(t testing.TB, cfg Config, ops []cacheOp) {
	t.Helper()
	got, want := New(cfg), newRefCache(cfg)
	for i, op := range ops {
		fill := FillOpts{Prefetch: op.prefetch, LowPriority: op.lowPri, Dirty: op.write}
		switch op.kind {
		case opAccess:
			if g, w := got.Access(op.line, op.write), want.Access(op.line, op.write); g != w {
				t.Fatalf("%+v op %d Access(%d, %v) = %+v, reference %+v", cfg, i, op.line, op.write, g, w)
			}
		case opProbe:
			if g, w := got.Probe(op.line), want.Probe(op.line); g != w {
				t.Fatalf("%+v op %d Probe(%d) = %v, reference %v", cfg, i, op.line, g, w)
			}
		case opFill:
			if g, w := got.Fill(op.line, fill), want.Fill(op.line, fill); g != w {
				t.Fatalf("%+v op %d Fill(%d, %+v) = %+v, reference %+v", cfg, i, op.line, fill, g, w)
			}
		case opInvalidate:
			gp, gd := got.Invalidate(op.line)
			wp, wd := want.Invalidate(op.line)
			if gp != wp || gd != wd {
				t.Fatalf("%+v op %d Invalidate(%d) = %v,%v, reference %v,%v", cfg, i, op.line, gp, gd, wp, wd)
			}
		case opProbeFill:
			g, w := got.Probe(op.line), want.Probe(op.line)
			if g != w {
				t.Fatalf("%+v op %d Probe(%d) = %v, reference %v", cfg, i, op.line, g, w)
			}
			if !g {
				fill.Absent = true
				if g, w := got.Fill(op.line, fill), want.Fill(op.line, fill); g != w {
					t.Fatalf("%+v op %d Fill(%d, %+v) = %+v, reference %+v", cfg, i, op.line, fill, g, w)
				}
			}
		}
		if g, w := got.Stats(), want.stats; g != w {
			t.Fatalf("%+v op %d (%+v): stats %+v, reference %+v", cfg, i, op, g, w)
		}
	}
}

// diffConfigs are the geometries the differential covers: a direct-mapped
// cache, the L1/L2 shape (one partial-tag word) and the LLC shape (two
// words), each with and without dead-block-aware replacement.
func diffConfigs() []Config {
	var out []Config
	for _, ways := range []int{1, 2, 8, 16} {
		for _, dead := range []bool{false, true} {
			out = append(out, Config{Name: "diff", SizeBytes: 8 * ways * memaddr.LineBytes, Ways: ways, DeadBlockAware: dead})
		}
	}
	return out
}

// diffLine maps a raw draw to a line of an 8-set cache: a set, a low tag
// byte from a small range (so sets overflow) and a high tag part, so equal
// partial tags with different full tags exercise the SWAR false-positive
// path.
func diffLine(set, tagLow, tagHigh uint64) memaddr.Line {
	tag := tagHigh<<8 | tagLow
	return memaddr.Line(tag<<3 | set&7)
}

// TestCacheMatchesReference drives randomized operation sequences through
// every differential geometry.
func TestCacheMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, cfg := range diffConfigs() {
		for trial := 0; trial < 20; trial++ {
			ops := make([]cacheOp, 4000)
			tagRange := uint64(2 * cfg.Ways)
			for i := range ops {
				ops[i] = cacheOp{
					kind:     opKind(rng.Intn(int(numOpKinds))),
					line:     diffLine(uint64(rng.Intn(8)), uint64(rng.Intn(int(tagRange))), uint64(rng.Intn(3))),
					write:    rng.Intn(4) == 0,
					prefetch: rng.Intn(2) == 0,
					lowPri:   rng.Intn(5) == 0,
				}
			}
			diffCache(t, cfg, ops)
		}
	}
}

// FuzzCacheMatchesReference decodes fuzz bytes into a geometry and an
// operation sequence and runs the differential on it. The first byte picks
// the geometry; every following two bytes are one operation: the op kind
// and flags in the first, the line (set, tag byte, tag high bit) in the
// second.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0x02, 0x00, 0x02, 0x08, 0x02, 0x10, 0x00, 0x00})
	f.Add([]byte{7, 0x12, 0x41, 0x0e, 0x81, 0x02, 0xc1, 0x00, 0x41, 0x03, 0x41})
	f.Add([]byte{5, 0x22, 0x07, 0x32, 0x0f, 0x04, 0x07, 0x2a, 0x17, 0x02, 0x07})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfgs := diffConfigs()
		cfg := cfgs[int(data[0])%len(cfgs)]
		var ops []cacheOp
		for b := data[1:]; len(b) >= 2; b = b[2:] {
			k, l := b[0], uint64(b[1])
			ops = append(ops, cacheOp{
				kind:     opKind(k % uint8(numOpKinds)),
				write:    k&0x08 != 0,
				prefetch: k&0x10 != 0,
				lowPri:   k&0x20 != 0,
				line:     diffLine(l, l>>3&0xF, l>>7),
			})
		}
		diffCache(t, cfg, ops)
	})
}
