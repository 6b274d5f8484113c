// Package cache models the set-associative caches of the simulated memory
// hierarchy, including the partial tag matching mechanism of paper §5.2:
// once the low 16 bits of an effective address are known, the cache index
// and a few low tag bits are available, which is enough to speculatively
// select a way (with MRU way prediction) or to signal a miss early and
// non-speculatively.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes one cache level.
type Config struct {
	Name       string
	SizeBytes  int
	LineBytes  int
	Assoc      int
	HitLatency int // cycles
}

// Validate checks the geometry is a realizable power-of-two design.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0:
		return fmt.Errorf("cache %s: non-positive geometry", c.Name)
	case bits.OnesCount(uint(c.SizeBytes)) != 1,
		bits.OnesCount(uint(c.LineBytes)) != 1,
		bits.OnesCount(uint(c.Assoc)) != 1:
		return fmt.Errorf("cache %s: geometry must be powers of two", c.Name)
	case c.SizeBytes < c.LineBytes*c.Assoc:
		return fmt.Errorf("cache %s: fewer than one set", c.Name)
	case c.Assoc > maxAssoc:
		return fmt.Errorf("cache %s: more than %d ways", c.Name, maxAssoc)
	}
	return nil
}

// maxAssoc is the most ways a set may have: the MRU way pointer is a
// byte.
const maxAssoc = 256

type line struct {
	valid bool
	dirty bool
	tag   uint32
	lru   uint64
}

// Cache is one level of set-associative cache with true-LRU replacement
// and an MRU way pointer per set for way prediction.
type Cache struct {
	cfg        Config
	nSets      int
	offsetBits int
	indexBits  int
	// lines holds every set's ways in one flat array, set-major: set
	// s is lines[s*assoc : (s+1)*assoc]. A per-set slice header would
	// cost 24 bytes a set and a pointer the GC must scan.
	lines []line
	mru   []uint8
	clock uint64

	// Stats.
	Accesses   uint64
	Misses     uint64
	Writes     uint64
	Writebacks uint64 // dirty victims evicted
}

// New builds a cache, rejecting invalid geometry with the Validate error
// so tools that accept user-supplied machine descriptions can surface it
// instead of crashing.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nSets := cfg.SizeBytes / (cfg.LineBytes * cfg.Assoc)
	return &Cache{
		cfg:        cfg,
		nSets:      nSets,
		offsetBits: bits.TrailingZeros(uint(cfg.LineBytes)),
		indexBits:  bits.TrailingZeros(uint(nSets)),
		lines:      make([]line, nSets*cfg.Assoc),
		mru:        make([]uint8, nSets),
	}, nil
}

// MustNew builds a cache from a geometry the caller vouches for (the
// baked-in Table-2 machine descriptions); it panics on a Validate error,
// which for those configurations is provably unreachable.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// OffsetBits returns the number of line-offset address bits.
func (c *Cache) OffsetBits() int { return c.offsetBits }

// IndexBits returns the number of set-index address bits.
func (c *Cache) IndexBits() int { return c.indexBits }

// TagLowBit returns the position of the lowest tag bit: tag bits occupy
// address bits [TagLowBit, 32).
func (c *Cache) TagLowBit() int { return c.offsetBits + c.indexBits }

// TagBits returns how many tag bits each line stores.
func (c *Cache) TagBits() int { return 32 - c.TagLowBit() }

func (c *Cache) split(addr uint32) (set uint32, tag uint32) {
	set = addr >> c.offsetBits & (uint32(c.nSets) - 1)
	tag = addr >> c.TagLowBit()
	return set, tag
}

// ways returns set's lines.
func (c *Cache) ways(set uint32) []line {
	a := c.cfg.Assoc
	i := int(set) * a
	return c.lines[i : i+a : i+a]
}

// Lookup reports whether addr hits without updating any state.
func (c *Cache) Lookup(addr uint32) bool {
	set, tag := c.split(addr)
	for _, w := range c.ways(set) {
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
}

// Access performs a read reference to addr, updating LRU/MRU state and
// filling on a miss. It returns whether the reference hit.
func (c *Cache) Access(addr uint32) bool { return c.reference(addr, false) }

// AccessWrite performs a write reference (write-back, write-allocate):
// the line is marked dirty and a dirty victim eviction counts as a
// write-back.
func (c *Cache) AccessWrite(addr uint32) bool { return c.reference(addr, true) }

func (c *Cache) reference(addr uint32, write bool) bool {
	c.Accesses++
	if write {
		c.Writes++
	}
	c.clock++
	set, tag := c.split(addr)
	ways := c.ways(set)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].lru = c.clock
			ways[i].dirty = ways[i].dirty || write
			c.mru[set] = uint8(i)
			return true
		}
	}
	c.Misses++
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	if ways[victim].valid && ways[victim].dirty {
		c.Writebacks++
	}
	ways[victim] = line{valid: true, dirty: write, tag: tag, lru: c.clock}
	c.mru[set] = uint8(victim)
	return false
}

// MissRate returns the observed miss rate.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// PartialKind classifies a partial tag match (paper §5.2, Figure 4).
type PartialKind uint8

// Partial tag match outcomes. SingleHit and ZeroMatch are the cases that
// converge as more tag bits are compared: they equal the hit and miss
// rates of the cache respectively.
const (
	// ZeroMatch: no way matches the partial tag — the access is a miss,
	// known early and non-speculatively.
	ZeroMatch PartialKind = iota
	// SingleHit: exactly one way matches the partial tag and that way also
	// matches the full tag (a correct early selection).
	SingleHit
	// SingleMiss: exactly one way matches the partial tag but the full tag
	// comparison will reveal a mismatch (the access is a miss).
	SingleMiss
	// MultiMatch: more than one way matches the partial tag bits so far; a
	// unique member cannot yet be determined.
	MultiMatch
)

// String returns the Figure 4 legend label for the kind.
func (k PartialKind) String() string {
	switch k {
	case ZeroMatch:
		return "zero match"
	case SingleHit:
		return "single entry - hit"
	case SingleMiss:
		return "single entry - miss"
	case MultiMatch:
		return "mult match"
	}
	return "?"
}

// ClassifyPartial classifies the reference to addr when only the low
// tagBitsKnown bits of the tag are available for comparison, against the
// current contents of the indexed set. It does not modify cache state.
func (c *Cache) ClassifyPartial(addr uint32, tagBitsKnown int) PartialKind {
	set, tag := c.split(addr)
	if tagBitsKnown > c.TagBits() {
		tagBitsKnown = c.TagBits()
	}
	var mask uint32
	if tagBitsKnown >= 32 {
		mask = ^uint32(0)
	} else {
		mask = 1<<uint(tagBitsKnown) - 1
	}
	matches := 0
	fullMatch := false
	for _, w := range c.ways(set) {
		if w.valid && w.tag&mask == tag&mask {
			matches++
			if w.tag == tag {
				fullMatch = true
			}
		}
	}
	switch {
	case matches == 0:
		return ZeroMatch
	case matches > 1:
		return MultiMatch
	case fullMatch:
		return SingleHit
	default:
		return SingleMiss
	}
}

// PredictWay performs the paper's speculative way selection: among the
// ways whose low tagBitsKnown tag bits match addr, choose the most
// recently used one. It returns the chosen way and whether any way
// matched; correct reports whether the chosen way's full tag matches
// (i.e. whether the speculation will verify).
func (c *Cache) PredictWay(addr uint32, tagBitsKnown int) (way int, anyMatch, correct bool) {
	set, tag := c.split(addr)
	if tagBitsKnown > c.TagBits() {
		tagBitsKnown = c.TagBits()
	}
	var mask uint32
	if tagBitsKnown >= 32 {
		mask = ^uint32(0)
	} else {
		mask = 1<<uint(tagBitsKnown) - 1
	}
	best := -1
	var bestLRU uint64
	ways := c.ways(set)
	for i, w := range ways {
		if w.valid && w.tag&mask == tag&mask {
			if best < 0 || w.lru > bestLRU {
				best, bestLRU = i, w.lru
			}
		}
	}
	if best < 0 {
		return -1, false, false
	}
	return best, true, ways[best].tag == tag
}

// KnownTagBits returns how many low tag bits are known when the low
// addrBitsKnown bits of the address have been generated (e.g. 16 after the
// first slice of a slice-by-2 address add).
func (c *Cache) KnownTagBits(addrBitsKnown int) int {
	k := addrBitsKnown - c.TagLowBit()
	if k < 0 {
		return 0
	}
	if k > c.TagBits() {
		return c.TagBits()
	}
	return k
}
