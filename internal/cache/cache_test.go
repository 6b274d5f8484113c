package cache

import (
	"math/rand"
	"testing"
)

func small() *Cache {
	// 8 sets x 2 ways x 16B lines = 256B.
	return MustNew(Config{Name: "t", SizeBytes: 256, LineBytes: 16, Assoc: 2, HitLatency: 1})
}

func TestGeometry(t *testing.T) {
	c := MustNew(Config{Name: "L1D", SizeBytes: 64 << 10, LineBytes: 64, Assoc: 4})
	if c.OffsetBits() != 6 {
		t.Fatalf("offset bits %d", c.OffsetBits())
	}
	if c.IndexBits() != 8 { // 64KB/64B/4 = 256 sets
		t.Fatalf("index bits %d", c.IndexBits())
	}
	if c.TagLowBit() != 14 || c.TagBits() != 18 {
		t.Fatalf("tag low %d bits %d", c.TagLowBit(), c.TagBits())
	}
	// The paper's observation: with 16 address bits known, this cache has
	// exactly 2 usable partial tag bits.
	if c.KnownTagBits(16) != 2 {
		t.Fatalf("KnownTagBits(16) = %d, want 2", c.KnownTagBits(16))
	}
	if c.KnownTagBits(8) != 0 || c.KnownTagBits(32) != 18 {
		t.Fatal("KnownTagBits clamping wrong")
	}
}

func TestValidateRejectsBadGeometry(t *testing.T) {
	bad := []Config{
		{SizeBytes: 100, LineBytes: 16, Assoc: 2}, // non power of two
		{SizeBytes: 0, LineBytes: 16, Assoc: 2},
		{SizeBytes: 64, LineBytes: 64, Assoc: 4}, // < 1 set
		{SizeBytes: 256, LineBytes: 16, Assoc: 3},
		{SizeBytes: 64 << 10, LineBytes: 64, Assoc: 1024}, // MRU way exceeds a byte
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted bad geometry", cfg)
		}
	}
}

func TestHitMissAndLRU(t *testing.T) {
	c := small()
	a := uint32(0x0000) // set 0
	b := uint32(0x0100) // set 0, different tag (bit 8 is first tag bit)
	d := uint32(0x0200) // set 0, third tag
	if c.Access(a) {
		t.Fatal("cold hit")
	}
	if !c.Access(a) {
		t.Fatal("warm miss")
	}
	c.Access(b) // fills way 2
	c.Access(a) // touch a so b is LRU
	c.Access(d) // evicts b
	if c.Lookup(b) {
		t.Fatal("b should be evicted")
	}
	if !c.Lookup(a) || !c.Lookup(d) {
		t.Fatal("a and d should be resident")
	}
	if c.Accesses != 5 || c.Misses != 3 {
		t.Fatalf("stats %d/%d", c.Misses, c.Accesses)
	}
}

func TestLookupDoesNotModify(t *testing.T) {
	c := small()
	c.Access(0)
	before := c.Accesses
	c.Lookup(0)
	c.Lookup(0x1000)
	if c.Accesses != before {
		t.Fatal("Lookup counted as access")
	}
}

func TestClassifyPartial(t *testing.T) {
	c := small() // tag low bit = 4+3 = 7
	// Two lines in set 0 whose tags differ only at tag bit 2.
	a := uint32(0x0000) // tag 0b000
	b := uint32(0x0200) // tag 0b100
	c.Access(a)
	c.Access(b)

	// Probe with a's address, 0 tag bits known: both match -> multi.
	if k := c.ClassifyPartial(a, 0); k != MultiMatch {
		t.Fatalf("0 bits: %v", k)
	}
	// 2 bits known: tags 000 vs 100 still agree in low 2 bits -> multi.
	if k := c.ClassifyPartial(a, 2); k != MultiMatch {
		t.Fatalf("2 bits: %v", k)
	}
	// 3 bits: unique and full-correct -> single hit.
	if k := c.ClassifyPartial(a, 3); k != SingleHit {
		t.Fatalf("3 bits: %v", k)
	}
	// Probe an address matching b's low tag bits but differing above:
	// tag 0b...1100: low 3 bits match b's 100 only if bits agree.
	probe := uint32(0x0a00) // tag 0b10100 -> low3 = 100 matches b, full differs
	if k := c.ClassifyPartial(probe, 3); k != SingleMiss {
		t.Fatalf("single-miss probe: %v", k)
	}
	// Unrelated set/tag: zero match.
	if k := c.ClassifyPartial(0x0480, 3); k != ZeroMatch { // set 0, tag 0b01001? ensure no match
		// 0x480>>7 = 0b1001 -> low 3 = 001, not 000 or 100
		t.Fatalf("zero probe: %v", k)
	}
	// Full-width classification matches a real lookup.
	if k := c.ClassifyPartial(a, 32); k != SingleHit {
		t.Fatalf("full bits: %v", k)
	}
}

func TestClassifyPartialConvergence(t *testing.T) {
	// Property: with all tag bits known, classification is SingleHit iff
	// Lookup hits, and ZeroMatch/SingleMiss otherwise.
	c := MustNew(Config{Name: "t", SizeBytes: 8 << 10, LineBytes: 32, Assoc: 4})
	r := rand.New(rand.NewSource(7))
	addrs := make([]uint32, 2000)
	for i := range addrs {
		addrs[i] = r.Uint32() % (1 << 20)
	}
	for _, a := range addrs {
		k := c.ClassifyPartial(a, c.TagBits())
		hit := c.Lookup(a)
		if hit != (k == SingleHit) {
			t.Fatalf("full classification %v vs hit %v", k, hit)
		}
		if !hit && k == MultiMatch {
			t.Fatal("full-width multi match is impossible")
		}
		c.Access(a)
	}
}

func TestPredictWayMRU(t *testing.T) {
	c := small()
	a := uint32(0x0000) // tag 000
	b := uint32(0x0200) // tag 100
	c.Access(a)
	c.Access(b) // b is now MRU
	// 2 known tag bits: both ways match; MRU policy must pick b's way.
	way, any, correct := c.PredictWay(b, 2)
	if !any || !correct {
		t.Fatalf("PredictWay(b): way=%d any=%v correct=%v", way, any, correct)
	}
	// Predicting for a with 2 bits picks b's way (MRU) -> incorrect.
	_, any, correct = c.PredictWay(a, 2)
	if !any || correct {
		t.Fatalf("PredictWay(a) should mispredict, correct=%v", correct)
	}
	// Touch a; now MRU favors a.
	c.Access(a)
	_, _, correct = c.PredictWay(a, 2)
	if !correct {
		t.Fatal("MRU did not follow most recent access")
	}
	// No match at all.
	_, any, _ = c.PredictWay(0x0480, 3)
	if any {
		t.Fatal("phantom match")
	}
}

func TestMissRate(t *testing.T) {
	c := small()
	for i := 0; i < 10; i++ {
		c.Access(0)
	}
	if got := c.MissRate(); got != 0.1 {
		t.Fatalf("miss rate %.2f", got)
	}
	var empty Cache
	if empty.MissRate() != 0 {
		t.Fatal("empty miss rate")
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := DefaultConfig()
	// Cold access: L1 miss, L2 miss, memory.
	lat, hit := h.AccessData(0x1000)
	if hit || lat != 1+6+100 {
		t.Fatalf("cold: lat=%d hit=%v", lat, hit)
	}
	// Now resident everywhere.
	lat, hit = h.AccessData(0x1000)
	if !hit || lat != 1 {
		t.Fatalf("warm: lat=%d hit=%v", lat, hit)
	}
	// Same line, different word: still a hit.
	lat, hit = h.AccessData(0x1004)
	if !hit || lat != 1 {
		t.Fatalf("same-line: lat=%d hit=%v", lat, hit)
	}
	// Instruction side is independent of data side.
	lat, hit = h.AccessInst(0x1000)
	if hit {
		t.Fatal("L1I warm from L1D access")
	}
	if lat != 1+6 { // L2 already holds the line from the data access
		t.Fatalf("L1I miss lat=%d", lat)
	}
}

func TestEvictionStress(t *testing.T) {
	// Walk far more lines than the cache holds; every revisit of a long
	// stride must miss, and stats must account exactly.
	c := small()
	n := 0
	for pass := 0; pass < 2; pass++ {
		for a := uint32(0); a < 64*16; a += 16 { // 64 lines, cache holds 16
			c.Access(a)
			n++
		}
	}
	if c.Accesses != uint64(n) {
		t.Fatal("access count")
	}
	if c.Misses != uint64(n) { // LRU thrashing: all references miss
		t.Fatalf("expected universal misses, got %d/%d", c.Misses, c.Accesses)
	}
}

func TestWriteBackAccounting(t *testing.T) {
	c := small() // 8 sets x 2 ways x 16B
	// Dirty a line, then evict it with two other tags in the same set.
	c.AccessWrite(0x0000)
	c.Access(0x0100)
	c.Access(0x0200) // evicts 0x0000 (dirty) -> writeback
	if c.Writebacks != 1 || c.Writes != 1 {
		t.Fatalf("writebacks=%d writes=%d", c.Writebacks, c.Writes)
	}
	// Clean eviction does not count.
	c.Access(0x0300)
	if c.Writebacks != 1 {
		t.Fatal("clean eviction counted as writeback")
	}
	// Re-dirtying a resident line is a hit and sets dirty.
	c2 := small()
	c2.Access(0x40)
	c2.AccessWrite(0x40)
	c2.Access(0x140)
	c2.Access(0x240) // evict dirty 0x40
	if c2.Writebacks != 1 {
		t.Fatal("dirty-on-hit lost")
	}
}

func TestHierarchyWriteData(t *testing.T) {
	h := DefaultConfig()
	if h.WriteData(0x4000) {
		t.Fatal("cold store hit")
	}
	if !h.WriteData(0x4000) {
		t.Fatal("warm store missed")
	}
	if h.L1D.Writes != 2 {
		t.Fatalf("writes = %d", h.L1D.Writes)
	}
}
