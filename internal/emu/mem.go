// Package emu provides the functional half of the simulator: a sparse
// little-endian memory image and an architectural-state emulator that
// executes the ISA defined in internal/isa and streams a dynamic
// instruction trace for the timing model and the characterization
// experiments.
package emu

import "fmt"

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// PageSize is the memory page granularity, exported for the checkpoint
// layer (internal/ckpt) which serializes whole pages.
const PageSize = pageSize

// memPage is one materialized page. dirty is set by every store and
// cleared when a checkpoint captures the page, so periodic snapshots can
// write deltas; the flag is a plain byte store on the write fast path,
// not a map operation.
type memPage struct {
	data  [pageSize]byte
	dirty bool
}

// Memory is a sparse, paged, little-endian 32-bit memory image. The zero
// value is an empty memory ready for use; untouched bytes read as zero.
type Memory struct {
	pages map[uint32]*memPage
}

// NewMemory returns an empty memory image.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint32]*memPage)}
}

func (m *Memory) page(addr uint32, create bool) *memPage {
	pn := addr >> pageShift
	p := m.pages[pn]
	if p == nil && create {
		p = new(memPage)
		p.dirty = true // a fresh page exists only because of a store
		if m.pages == nil {
			m.pages = make(map[uint32]*memPage)
		}
		m.pages[pn] = p
	}
	return p
}

// Read8 returns the byte at addr.
func (m *Memory) Read8(addr uint32) byte {
	if p := m.page(addr, false); p != nil {
		return p.data[addr&pageMask]
	}
	return 0
}

// Write8 stores b at addr.
func (m *Memory) Write8(addr uint32, b byte) {
	p := m.page(addr, true)
	p.dirty = true
	p.data[addr&pageMask] = b
}

// Read16 returns the little-endian 16-bit value at addr.
func (m *Memory) Read16(addr uint32) uint16 {
	return uint16(m.Read8(addr)) | uint16(m.Read8(addr+1))<<8
}

// Write16 stores v little-endian at addr.
func (m *Memory) Write16(addr uint32, v uint16) {
	m.Write8(addr, byte(v))
	m.Write8(addr+1, byte(v>>8))
}

// Read32 returns the little-endian 32-bit value at addr.
func (m *Memory) Read32(addr uint32) uint32 {
	// Fast path for aligned access within one page.
	if addr&3 == 0 {
		if p := m.page(addr, false); p != nil {
			o := addr & pageMask
			return uint32(p.data[o]) | uint32(p.data[o+1])<<8 | uint32(p.data[o+2])<<16 |
				uint32(p.data[o+3])<<24
		}
		return 0
	}
	return uint32(m.Read16(addr)) | uint32(m.Read16(addr+2))<<16
}

// Write32 stores v little-endian at addr.
func (m *Memory) Write32(addr uint32, v uint32) {
	if addr&3 == 0 {
		p := m.page(addr, true)
		p.dirty = true
		o := addr & pageMask
		p.data[o] = byte(v)
		p.data[o+1] = byte(v >> 8)
		p.data[o+2] = byte(v >> 16)
		p.data[o+3] = byte(v >> 24)
		return
	}
	m.Write16(addr, uint16(v))
	m.Write16(addr+2, uint16(v>>16))
}

// WriteBlock copies data into memory starting at addr, one page-sized
// chunk per page lookup. Each page it touches is created if needed and
// marked dirty, as a Write8 loop would; addresses wrap past 0xFFFFFFFF.
func (m *Memory) WriteBlock(addr uint32, data []byte) {
	for len(data) > 0 {
		p := m.page(addr, true)
		p.dirty = true
		n := copy(p.data[addr&pageMask:], data)
		data = data[n:]
		addr += uint32(n)
	}
}

// ReadBlock copies n bytes starting at addr into a fresh slice, one
// page-sized chunk per page lookup; unmaterialized pages read as zero.
func (m *Memory) ReadBlock(addr uint32, n int) []byte {
	out := make([]byte, n)
	for rest := out; len(rest) > 0; {
		k := min(len(rest), pageSize-int(addr&pageMask))
		if p := m.page(addr, false); p != nil {
			copy(rest[:k], p.data[addr&pageMask:])
		}
		rest = rest[k:]
		addr += uint32(k)
	}
	return out
}

// ReadCString reads a NUL-terminated string at addr (capped at 1MB to
// bound runaway reads from corrupted programs).
func (m *Memory) ReadCString(addr uint32) (string, error) {
	const limit = 1 << 20
	var buf []byte
	for i := 0; i < limit; i++ {
		b := m.Read8(addr + uint32(i))
		if b == 0 {
			return string(buf), nil
		}
		buf = append(buf, b)
	}
	return "", errUnterminated(addr)
}

func errUnterminated(addr uint32) error {
	return fmt.Errorf("emu: unterminated string at 0x%08x", addr)
}

// PageCount reports how many 4KB pages have been materialized.
func (m *Memory) PageCount() int { return len(m.pages) }

// DirtyPageCount reports how many pages carry writes since the last
// clearDirty (checkpoint delta size, in pages).
func (m *Memory) DirtyPageCount() int {
	n := 0
	for _, p := range m.pages {
		if p.dirty {
			n++
		}
	}
	return n
}

// clearDirty marks every materialized page clean. Called after a
// checkpoint captures the image, so the next delta snapshot carries only
// pages written since.
func (m *Memory) clearDirty() {
	for _, p := range m.pages {
		p.dirty = false
	}
}
