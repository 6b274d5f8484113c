package cache

import "fmt"

// CacheState is one cache level's complete warm state in a flat,
// deterministic layout: every way's valid/dirty/tag/LRU stamp (row-major
// by set), the per-set MRU way pointers behind way prediction, the LRU
// clock, and the statistics counters. Restoring it around a checkpoint
// keeps hit/miss timing and way-prediction outcomes bit-identical.
type CacheState struct {
	Sets  int
	Assoc int

	Valid []byte
	Dirty []byte
	Tag   []uint32
	LRU   []uint64
	MRU   []int32
	Clock uint64

	Accesses   uint64
	Misses     uint64
	Writes     uint64
	Writebacks uint64
}

// State captures the cache's warm state.
func (c *Cache) State() *CacheState {
	assoc := c.cfg.Assoc
	n := c.nSets * assoc
	st := &CacheState{
		Sets: c.nSets, Assoc: assoc,
		Valid: make([]byte, n), Dirty: make([]byte, n),
		Tag: make([]uint32, n), LRU: make([]uint64, n),
		MRU: make([]int32, c.nSets), Clock: c.clock,
		Accesses: c.Accesses, Misses: c.Misses,
		Writes: c.Writes, Writebacks: c.Writebacks,
	}
	for i, w := range c.lines {
		if w.valid {
			st.Valid[i] = 1
		}
		if w.dirty {
			st.Dirty[i] = 1
		}
		st.Tag[i] = w.tag
		st.LRU[i] = w.lru
	}
	for i, w := range c.mru {
		st.MRU[i] = int32(w)
	}
	return st
}

// Restore loads a captured state into a cache of the same geometry.
func (c *Cache) Restore(st *CacheState) error {
	assoc := c.cfg.Assoc
	if st.Sets != c.nSets || st.Assoc != assoc {
		return fmt.Errorf("cache %s: restore: geometry %dx%d, snapshot %dx%d",
			c.cfg.Name, c.nSets, assoc, st.Sets, st.Assoc)
	}
	n := c.nSets * assoc
	if len(st.Valid) != n || len(st.Dirty) != n || len(st.Tag) != n ||
		len(st.LRU) != n || len(st.MRU) != c.nSets {
		return fmt.Errorf("cache %s: restore: inconsistent arrays", c.cfg.Name)
	}
	for i := range c.lines {
		c.lines[i] = line{
			valid: st.Valid[i] != 0,
			dirty: st.Dirty[i] != 0,
			tag:   st.Tag[i],
			lru:   st.LRU[i],
		}
	}
	for i := range c.mru {
		w := st.MRU[i]
		if w < 0 || int(w) >= assoc {
			return fmt.Errorf("cache %s: restore: MRU way %d out of range", c.cfg.Name, w)
		}
		c.mru[i] = uint8(w)
	}
	c.clock = st.Clock
	c.Accesses, c.Misses = st.Accesses, st.Misses
	c.Writes, c.Writebacks = st.Writes, st.Writebacks
	return nil
}

// TLBState is a TLB's complete warm state, laid out like CacheState.
type TLBState struct {
	Sets  int
	Assoc int

	Valid []byte
	Tag   []uint32
	LRU   []uint64
	Clock uint64

	Accesses uint64
	Misses   uint64
}

// State captures the TLB's warm state.
func (t *TLB) State() *TLBState {
	nSets := len(t.sets)
	assoc := 0
	if nSets > 0 {
		assoc = len(t.sets[0])
	}
	n := nSets * assoc
	st := &TLBState{
		Sets: nSets, Assoc: assoc,
		Valid: make([]byte, n), Tag: make([]uint32, n), LRU: make([]uint64, n),
		Clock: t.clock, Accesses: t.Accesses, Misses: t.Misses,
	}
	for si, set := range t.sets {
		for wi := range set {
			i := si*assoc + wi
			if set[wi].valid {
				st.Valid[i] = 1
			}
			st.Tag[i] = set[wi].tag
			st.LRU[i] = set[wi].lru
		}
	}
	return st
}

// Restore loads a captured state into a TLB of the same geometry.
func (t *TLB) Restore(st *TLBState) error {
	nSets := len(t.sets)
	assoc := 0
	if nSets > 0 {
		assoc = len(t.sets[0])
	}
	if st.Sets != nSets || st.Assoc != assoc {
		return fmt.Errorf("cache: TLB restore: geometry %dx%d, snapshot %dx%d",
			nSets, assoc, st.Sets, st.Assoc)
	}
	n := nSets * assoc
	if len(st.Valid) != n || len(st.Tag) != n || len(st.LRU) != n {
		return fmt.Errorf("cache: TLB restore: inconsistent arrays")
	}
	for si, set := range t.sets {
		for wi := range set {
			i := si*assoc + wi
			set[wi] = tlbEntry{valid: st.Valid[i] != 0, tag: st.Tag[i], lru: st.LRU[i]}
		}
	}
	t.clock = st.Clock
	t.Accesses, t.Misses = st.Accesses, st.Misses
	return nil
}

// HierarchyState bundles the three cache levels' warm state.
type HierarchyState struct {
	L1I *CacheState
	L1D *CacheState
	L2  *CacheState
}

// State captures the hierarchy's warm state.
func (h *Hierarchy) State() *HierarchyState {
	return &HierarchyState{L1I: h.L1I.State(), L1D: h.L1D.State(), L2: h.L2.State()}
}

// Restore loads a captured state into a hierarchy of the same geometry.
func (h *Hierarchy) Restore(st *HierarchyState) error {
	if st == nil || st.L1I == nil || st.L1D == nil || st.L2 == nil {
		return fmt.Errorf("cache: hierarchy restore: missing level state")
	}
	if err := h.L1I.Restore(st.L1I); err != nil {
		return err
	}
	if err := h.L1D.Restore(st.L1D); err != nil {
		return err
	}
	return h.L2.Restore(st.L2)
}
