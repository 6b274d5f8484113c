package ckpt

import (
	"encoding/binary"
	"slices"

	"pok/internal/bpred"
	"pok/internal/cache"
	"pok/internal/emu"
)

// File layout:
//
//	magic "POKC" | u32 version
//	section*:  tag[4] | u32 len | payload[len] | u64 fnv64a(payload)
//	end:       "END\x00" | u32 8 | u64 fnv64a(all section hashes) | u64 hash
//
// All integers little-endian. Section payloads are parsed only after
// their hash verifies, so a parse failure inside a hash-clean section is
// still classified as corruption (a flipped bit that collided, or a
// buggy writer) — never a panic. Running out of bytes before the END
// section completes is the truncated-tail case.

var fileMagic = [4]byte{'P', 'O', 'K', 'C'}

const endTag = "END\x00"

// Section tags.
const (
	tagMeta  = "META"
	tagEmu   = "EMUS"
	tagBpred = "BPRD"
	tagHier  = "HIER"
	tagDTLB  = "DTLB"
	tagCore  = "CORE"
	tagExtra = "XTRA"
)

const fnvOffset = 14695981039346656037
const fnvPrime = 1099511628211

func fnv64a(b []byte) uint64 {
	h := uint64(fnvOffset)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// fnv64aU64 folds v's eight little-endian bytes into the running fnv64a
// h: the END section's hash over every section hash, without buffering
// them.
func fnv64aU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// writer is a little-endian append buffer.
type writer struct{ b []byte }

func (w *writer) u8(v uint8)   { w.b = append(w.b, v) }
func (w *writer) u16(v uint16) { w.b = binary.LittleEndian.AppendUint16(w.b, v) }
func (w *writer) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *writer) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *writer) bytes(v []byte) {
	w.u32(uint32(len(v)))
	w.b = append(w.b, v...)
}
func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}

// open starts a section in place: its tag and a length placeholder that
// seal patches once the payload is written.
func (w *writer) open(tag string) int {
	w.b = append(w.b, tag...)
	w.u32(0)
	return len(w.b)
}

// seal closes the section whose payload starts at start: it patches the
// length, appends the payload hash and returns it.
func (w *writer) seal(start int) uint64 {
	payload := w.b[start:]
	binary.LittleEndian.PutUint32(w.b[start-4:], uint32(len(payload)))
	h := fnv64a(payload)
	w.u64(h)
	return h
}

// reader is a bounds-checked little-endian cursor over one section
// payload. The first out-of-bounds read latches bad=true and every
// subsequent read returns zero, so decoding malformed payloads is safe
// without per-read error plumbing; the caller checks bad once.
type reader struct {
	b   []byte
	off int
	bad bool
}

func (r *reader) take(n int) []byte {
	if n < 0 || r.off+n > len(r.b) || r.off+n < r.off {
		r.bad = true
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

func (r *reader) u8() uint8 {
	v := r.take(1)
	if v == nil {
		return 0
	}
	return v[0]
}

func (r *reader) u16() uint16 {
	v := r.take(2)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(v)
}

func (r *reader) u32() uint32 {
	v := r.take(4)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(v)
}

func (r *reader) u64() uint64 {
	v := r.take(8)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(v)
}

func (r *reader) bytes() []byte {
	n := int(r.u32())
	// A length prefix can never exceed the payload that holds it; this
	// bound also caps allocation at input size for fuzzed garbage.
	if r.bad || n > len(r.b)-r.off {
		r.bad = true
		return nil
	}
	return append([]byte(nil), r.take(n)...)
}

func (r *reader) str() string { return string(r.bytes()) }

func (r *reader) done() bool { return !r.bad && r.off == len(r.b) }

// count reads a u32 element count for elements of elemSize bytes,
// rejecting counts that could not fit in the remaining payload.
func (r *reader) count(elemSize int) int {
	n := int(r.u32())
	if r.bad || n < 0 || elemSize <= 0 || n > (len(r.b)-r.off)/elemSize+1 {
		r.bad = true
		return 0
	}
	return n
}

// Encode serializes a snapshot. The encoding is deterministic: section
// order is fixed, extras sort by name, and every slice is
// length-prefixed — the same state always yields the same bytes. Every
// section is written in place into one buffer allocated at its final
// size.
func Encode(s *Snapshot) []byte {
	out := writer{b: make([]byte, 0, encodedSize(s))}
	out.b = append(out.b, fileMagic[:]...)
	out.u32(Version)

	sum := uint64(fnvOffset) // fnv64a over every section hash, in order
	seal := func(start int) { sum = fnv64aU64(sum, out.seal(start)) }

	at := out.open(tagMeta) // start of the open section's payload
	encodeMeta(&out, &s.Meta)
	seal(at)
	if s.Emu != nil {
		at = out.open(tagEmu)
		encodeEmu(&out, s.Emu)
		seal(at)
	}
	if s.Bpred != nil {
		at = out.open(tagBpred)
		encodeBpred(&out, s.Bpred)
		seal(at)
	}
	if s.Hier != nil {
		at = out.open(tagHier)
		encodeLevel(&out, s.Hier.L1I)
		encodeLevel(&out, s.Hier.L1D)
		encodeLevel(&out, s.Hier.L2)
		seal(at)
	}
	if s.DTLB != nil {
		at = out.open(tagDTLB)
		encodeTLB(&out, s.DTLB)
		seal(at)
	}
	if s.Core != nil {
		at = out.open(tagCore)
		out.b = append(out.b, s.Core...)
		seal(at)
	}
	var nameBuf [4]string // the core contributes at most two extras
	names := nameBuf[:0]
	for name := range s.Extra {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		at = out.open(tagExtra)
		out.str(name)
		out.bytes(s.Extra[name])
		seal(at)
	}

	// END: its payload is the hash of all section hashes, so any
	// reordering or replacement of a whole section (with a forged
	// per-section hash) is still caught.
	at = out.open(endTag)
	out.u64(sum)
	out.seal(at)
	return out.b
}

// encodedSize is the exact length of Encode(s), so Encode allocates its
// output once. It mirrors the encoders below field by field;
// TestEncodeAllocatesOnce fails when the two drift apart.
func encodedSize(s *Snapshot) int {
	const section = 4 + 4 + 8 // tag, length, hash
	str := func(v string) int { return 4 + len(v) }
	n := 8 + section + 8 // header; END and its summary hash
	m := &s.Meta
	n += section + str(m.Benchmark) + str(m.Config) + str(m.Scheduler) +
		4*8 + str(m.BaseFile)
	if st := s.Emu; st != nil {
		n += section + 4 + 4*len(st.Regs) + 4 + 1 + 4 + 8 + 4 + str(st.Output) +
			4 + 4*len(st.Inputs) + 4 + 4 + 1 + 4 + len(st.Pages)*(4+emu.PageSize)
	}
	if st := s.Bpred; st != nil {
		n += section + str(st.DirKind) + 4 + len(st.DirTable) + 4 + 2*len(st.DirHist) +
			3*4 + 4 + len(st.BTBValid) + 4*len(st.BTBTag) + 4*len(st.BTBTarget) +
			8*len(st.BTBLRU) + 8 + 4 + 4*len(st.RASStack) + 2*4 + 2*8
	}
	if h := s.Hier; h != nil {
		n += section
		for _, st := range []*cache.CacheState{h.L1I, h.L1D, h.L2} {
			n += 2*4 + 4 + len(st.Valid) + 4 + len(st.Dirty) + 4*len(st.Tag) +
				8*len(st.LRU) + 5*8
		}
	}
	if st := s.DTLB; st != nil {
		n += section + 2*4 + 4 + len(st.Valid) + 4*len(st.Tag) + 8*len(st.LRU) + 3*8
	}
	if s.Core != nil {
		n += section + len(s.Core)
	}
	for name, v := range s.Extra {
		n += section + str(name) + 4 + len(v)
	}
	return n
}

// Decode parses and verifies a snapshot, classifying damage as
// *VersionError, *TruncatedError or *CorruptError. It never panics on
// arbitrary input (FuzzCheckpointDecode).
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < 8 {
		return nil, &TruncatedError{Section: "header", Offset: len(data)}
	}
	if [4]byte(data[:4]) != fileMagic {
		return nil, &CorruptError{Section: "header", Reason: "bad magic"}
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != Version {
		return nil, &VersionError{Got: v, Want: Version}
	}

	s := &Snapshot{}
	sum := uint64(fnvOffset) // fnv64a over every section hash, in order
	seen := map[string]bool{}
	off := 8
	for {
		if off == len(data) {
			return nil, &TruncatedError{Section: endTag, Offset: off}
		}
		if len(data)-off < 8 {
			return nil, &TruncatedError{Section: "header", Offset: off}
		}
		tag := string(data[off : off+4])
		plen := int(binary.LittleEndian.Uint32(data[off+4 : off+8]))
		off += 8
		if plen < 0 || plen > len(data)-off {
			return nil, &TruncatedError{Section: tag, Offset: off}
		}
		payload := data[off : off+plen]
		off += plen
		if len(data)-off < 8 {
			return nil, &TruncatedError{Section: tag, Offset: off}
		}
		h := binary.LittleEndian.Uint64(data[off : off+8])
		off += 8
		if fnv64a(payload) != h {
			return nil, &CorruptError{Section: tag, Reason: "content hash mismatch"}
		}

		if tag == endTag {
			r := &reader{b: payload}
			want := r.u64()
			if !r.done() {
				return nil, &CorruptError{Section: endTag, Reason: "malformed payload"}
			}
			if sum != want {
				return nil, &CorruptError{Section: endTag, Reason: "section-hash summary mismatch"}
			}
			break
		}
		sum = fnv64aU64(sum, h)
		if seen[tag] && tag != tagExtra {
			return nil, &CorruptError{Section: tag, Reason: "duplicate section"}
		}
		seen[tag] = true

		var err error
		switch tag {
		case tagMeta:
			err = decodeMeta(payload, &s.Meta)
		case tagEmu:
			s.Emu, err = decodeEmu(payload)
		case tagBpred:
			s.Bpred, err = decodeBpred(payload)
		case tagHier:
			r := &reader{b: payload}
			hs := &cache.HierarchyState{}
			hs.L1I = decodeLevel(r)
			hs.L1D = decodeLevel(r)
			hs.L2 = decodeLevel(r)
			if !r.done() {
				err = &CorruptError{Section: tag, Reason: "malformed payload"}
			} else {
				s.Hier = hs
			}
		case tagDTLB:
			r := &reader{b: payload}
			ts := decodeTLB(r)
			if !r.done() {
				err = &CorruptError{Section: tag, Reason: "malformed payload"}
			} else {
				s.DTLB = ts
			}
		case tagCore:
			s.Core = append([]byte(nil), payload...)
		case tagExtra:
			r := &reader{b: payload}
			name := r.str()
			val := r.bytes()
			if !r.done() || name == "" {
				err = &CorruptError{Section: tag, Reason: "malformed payload"}
			} else {
				if s.Extra == nil {
					s.Extra = make(map[string][]byte)
				}
				s.Extra[name] = val
			}
		default:
			// Unknown sections are refused rather than skipped: within
			// one format version the section set is closed, so an
			// unknown tag means damage.
			err = &CorruptError{Section: tag, Reason: "unknown section"}
		}
		if err != nil {
			return nil, err
		}
	}

	if !seen[tagMeta] {
		return nil, &CorruptError{Section: tagMeta, Reason: "missing required section"}
	}
	if !seen[tagEmu] {
		return nil, &CorruptError{Section: tagEmu, Reason: "missing required section"}
	}
	if (s.Emu.Partial) != (s.Meta.BaseID != 0) {
		return nil, &CorruptError{Section: tagMeta, Reason: "delta flag disagrees with memory image"}
	}
	return s, nil
}

func encodeMeta(w *writer, m *Meta) {
	w.str(m.Benchmark)
	w.str(m.Config)
	w.str(m.Scheduler)
	w.u64(m.Insts)
	w.u64(uint64(m.Cycles))
	w.u64(m.ID)
	w.u64(m.BaseID)
	w.str(m.BaseFile)
}

func decodeMeta(b []byte, m *Meta) error {
	r := &reader{b: b}
	m.Benchmark = r.str()
	m.Config = r.str()
	m.Scheduler = r.str()
	m.Insts = r.u64()
	m.Cycles = int64(r.u64())
	m.ID = r.u64()
	m.BaseID = r.u64()
	m.BaseFile = r.str()
	if !r.done() {
		return &CorruptError{Section: tagMeta, Reason: "malformed payload"}
	}
	return nil
}

func encodeEmu(w *writer, st *emu.State) {
	w.u32(uint32(len(st.Regs)))
	for _, v := range st.Regs {
		w.u32(v)
	}
	w.u32(st.PC)
	w.u8(b2u(st.Halted))
	w.u32(uint32(st.ExitCode))
	w.u64(st.ICount)
	w.u32(st.Brk)
	w.str(st.Output)
	w.u32(uint32(len(st.Inputs)))
	for _, v := range st.Inputs {
		w.u32(uint32(v))
	}
	w.u32(st.UBase)
	w.u32(uint32(st.ULen))
	w.u8(b2u(st.Partial))
	w.u32(uint32(len(st.Pages)))
	for _, pg := range st.Pages {
		w.u32(pg.Num)
		w.b = append(w.b, pg.Data...)
	}
}

func decodeEmu(b []byte) (*emu.State, error) {
	r := &reader{b: b}
	st := &emu.State{}
	if n := r.count(4); n != len(st.Regs) {
		if !r.bad {
			return nil, &CorruptError{Section: tagEmu, Reason: "register-file size mismatch"}
		}
		return nil, &CorruptError{Section: tagEmu, Reason: "malformed payload"}
	}
	for i := range st.Regs {
		st.Regs[i] = r.u32()
	}
	st.PC = r.u32()
	st.Halted = r.u8() != 0
	st.ExitCode = int32(r.u32())
	st.ICount = r.u64()
	st.Brk = r.u32()
	st.Output = r.str()
	n := r.count(4)
	st.Inputs = make([]int32, n)
	for i := range st.Inputs {
		st.Inputs[i] = int32(r.u32())
	}
	st.UBase = r.u32()
	st.ULen = int(r.u32())
	st.Partial = r.u8() != 0
	np := r.count(4 + emu.PageSize)
	st.Pages = make([]emu.MemPage, 0, np)
	var prev uint32
	for i := 0; i < np; i++ {
		num := r.u32()
		data := append([]byte(nil), r.take(emu.PageSize)...)
		if r.bad {
			break
		}
		if i > 0 && num <= prev {
			return nil, &CorruptError{Section: tagEmu, Reason: "pages out of order"}
		}
		prev = num
		st.Pages = append(st.Pages, emu.MemPage{Num: num, Data: data})
	}
	if !r.done() {
		return nil, &CorruptError{Section: tagEmu, Reason: "malformed payload"}
	}
	return st, nil
}

func encodeBpred(w *writer, st *bpred.State) {
	w.str(st.DirKind)
	w.bytes(st.DirTable)
	w.u32(uint32(len(st.DirHist)))
	for _, v := range st.DirHist {
		w.u16(v)
	}
	w.u32(st.GHR)
	w.u32(uint32(st.BTBSets))
	w.u32(uint32(st.BTBAssoc))
	w.bytes(st.BTBValid)
	for _, v := range st.BTBTag {
		w.u32(v)
	}
	for _, v := range st.BTBTarget {
		w.u32(v)
	}
	for _, v := range st.BTBLRU {
		w.u64(v)
	}
	w.u64(st.BTBClock)
	w.u32(uint32(len(st.RASStack)))
	for _, v := range st.RASStack {
		w.u32(v)
	}
	w.u32(uint32(st.RASTop))
	w.u32(uint32(st.RASCount))
	w.u64(st.CondBranches)
	w.u64(st.CondMispred)
}

func decodeBpred(b []byte) (*bpred.State, error) {
	r := &reader{b: b}
	st := &bpred.State{}
	st.DirKind = r.str()
	st.DirTable = r.bytes()
	nh := r.count(2)
	st.DirHist = make([]uint16, nh)
	for i := range st.DirHist {
		st.DirHist[i] = r.u16()
	}
	st.GHR = r.u32()
	st.BTBSets = int(r.u32())
	st.BTBAssoc = int(r.u32())
	st.BTBValid = r.bytes()
	n := len(st.BTBValid)
	if r.bad || st.BTBSets < 0 || st.BTBAssoc < 0 || st.BTBSets*st.BTBAssoc != n ||
		n > len(b) {
		return nil, &CorruptError{Section: tagBpred, Reason: "malformed payload"}
	}
	st.BTBTag = make([]uint32, n)
	for i := range st.BTBTag {
		st.BTBTag[i] = r.u32()
	}
	st.BTBTarget = make([]uint32, n)
	for i := range st.BTBTarget {
		st.BTBTarget[i] = r.u32()
	}
	st.BTBLRU = make([]uint64, n)
	for i := range st.BTBLRU {
		st.BTBLRU[i] = r.u64()
	}
	st.BTBClock = r.u64()
	nr := r.count(4)
	st.RASStack = make([]uint32, nr)
	for i := range st.RASStack {
		st.RASStack[i] = r.u32()
	}
	st.RASTop = int(r.u32())
	st.RASCount = int(r.u32())
	st.CondBranches = r.u64()
	st.CondMispred = r.u64()
	if !r.done() {
		return nil, &CorruptError{Section: tagBpred, Reason: "malformed payload"}
	}
	return st, nil
}

func encodeLevel(w *writer, st *cache.CacheState) {
	w.u32(uint32(st.Sets))
	w.u32(uint32(st.Assoc))
	w.bytes(st.Valid)
	w.bytes(st.Dirty)
	for _, v := range st.Tag {
		w.u32(v)
	}
	for _, v := range st.LRU {
		w.u64(v)
	}
	w.u64(st.Clock)
	w.u64(st.Accesses)
	w.u64(st.Misses)
	w.u64(st.Writes)
	w.u64(st.Writebacks)
}

func decodeLevel(r *reader) *cache.CacheState {
	st := &cache.CacheState{}
	st.Sets = int(r.u32())
	st.Assoc = int(r.u32())
	st.Valid = r.bytes()
	st.Dirty = r.bytes()
	n := len(st.Valid)
	if r.bad || st.Sets < 0 || st.Assoc < 0 || st.Sets*st.Assoc != n || len(st.Dirty) != n {
		r.bad = true
		return nil
	}
	st.Tag = make([]uint32, n)
	for i := range st.Tag {
		st.Tag[i] = r.u32()
	}
	st.LRU = make([]uint64, n)
	for i := range st.LRU {
		st.LRU[i] = r.u64()
	}
	st.Clock = r.u64()
	st.Accesses = r.u64()
	st.Misses = r.u64()
	st.Writes = r.u64()
	st.Writebacks = r.u64()
	if r.bad {
		return nil
	}
	return st
}

func encodeTLB(w *writer, st *cache.TLBState) {
	w.u32(uint32(st.Sets))
	w.u32(uint32(st.Assoc))
	w.bytes(st.Valid)
	for _, v := range st.Tag {
		w.u32(v)
	}
	for _, v := range st.LRU {
		w.u64(v)
	}
	w.u64(st.Clock)
	w.u64(st.Accesses)
	w.u64(st.Misses)
}

func decodeTLB(r *reader) *cache.TLBState {
	st := &cache.TLBState{}
	st.Sets = int(r.u32())
	st.Assoc = int(r.u32())
	st.Valid = r.bytes()
	n := len(st.Valid)
	if r.bad || st.Sets < 0 || st.Assoc < 0 || st.Sets*st.Assoc != n {
		r.bad = true
		return nil
	}
	st.Tag = make([]uint32, n)
	for i := range st.Tag {
		st.Tag[i] = r.u32()
	}
	st.LRU = make([]uint64, n)
	for i := range st.LRU {
		st.LRU[i] = r.u64()
	}
	st.Clock = r.u64()
	st.Accesses = r.u64()
	st.Misses = r.u64()
	if r.bad {
		return nil
	}
	return st
}

func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
