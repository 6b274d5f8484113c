package ckpt_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"pok/internal/bpred"
	"pok/internal/cache"
	"pok/internal/ckpt"
	"pok/internal/emu"
)

// sampleSnapshot builds a small synthetic snapshot exercising every
// section, including extras. With delta set, the memory image is marked
// partial and chained to base ID 3.
func sampleSnapshot(delta bool) *ckpt.Snapshot {
	page := func(fill byte) []byte {
		b := make([]byte, emu.PageSize)
		for i := range b {
			b[i] = fill
		}
		return b
	}
	es := &emu.State{
		PC: 0x400120, ICount: 123456, Brk: 0x10008000,
		Output: "hello\n", Inputs: []int32{7, -1},
		UBase: 0x400000, ULen: 2048,
		Partial: delta,
		Pages: []emu.MemPage{
			{Num: 0x400, Data: page(0xAB)},
			{Num: 0x7FF, Data: page(0x11)},
		},
	}
	es.Regs[4] = 0xdeadbeef
	es.Regs[31] = 0x400200

	bs := &bpred.State{
		DirKind: "gshare", DirTable: []uint8{0, 1, 2, 3},
		DirHist: []uint16{1, 2}, GHR: 0x5a5a,
		BTBSets: 2, BTBAssoc: 2,
		BTBValid: []byte{1, 0, 1, 1}, BTBTag: []uint32{10, 0, 30, 40},
		BTBTarget: []uint32{100, 0, 300, 400}, BTBLRU: []uint64{1, 0, 3, 4},
		BTBClock: 9, RASStack: []uint32{0x400100, 0x400200},
		RASTop: 1, RASCount: 2, CondBranches: 500, CondMispred: 25,
	}
	mkCache := func(sets, assoc int) *cache.CacheState {
		n := sets * assoc
		cs := &cache.CacheState{
			Sets: sets, Assoc: assoc,
			Valid: make([]byte, n), Dirty: make([]byte, n),
			Tag: make([]uint32, n), LRU: make([]uint64, n),
			Clock:    77,
			Accesses: 1000, Misses: 50, Writes: 200, Writebacks: 10,
		}
		for i := 0; i < n; i++ {
			cs.Valid[i] = byte(i % 2)
			cs.Tag[i] = uint32(i * 3)
			cs.LRU[i] = uint64(i)
		}
		return cs
	}
	meta := ckpt.Meta{
		Benchmark: "li", Config: "bit-slice-x4",
		Scheduler: "event",
		Insts:     50_000, Cycles: 61_234, ID: 4,
	}
	if delta {
		meta.BaseID = 3
		meta.BaseFile = "ckpt-000000040000.pok"
	}
	return &ckpt.Snapshot{
		Meta:  meta,
		Emu:   es,
		Bpred: bs,
		Hier:  &cache.HierarchyState{L1I: mkCache(4, 1), L1D: mkCache(4, 4), L2: mkCache(8, 4)},
		DTLB: &cache.TLBState{
			Sets: 2, Assoc: 2, Valid: []byte{1, 1, 0, 0},
			Tag: []uint32{5, 6, 0, 0}, LRU: []uint64{2, 1, 0, 0},
			Clock: 3, Accesses: 80, Misses: 4,
		},
		Core: []byte(`{"now":61234}`),
		Extra: map[string][]byte{
			"inject":    []byte(`{"total":3}`),
			"telemetry": []byte(`{"cycles_sampled":61234}`),
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, delta := range []bool{false, true} {
		s := sampleSnapshot(delta)
		got, err := ckpt.Decode(ckpt.Encode(s))
		if err != nil {
			t.Fatalf("delta=%v: %v", delta, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Errorf("delta=%v: round trip lost state", delta)
		}
		if got.IsDelta() != delta {
			t.Errorf("delta=%v: IsDelta() = %v", delta, got.IsDelta())
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	a := string(ckpt.Encode(sampleSnapshot(false)))
	b := string(ckpt.Encode(sampleSnapshot(false)))
	if a != b {
		t.Fatal("two encodes of the same state differ")
	}
}

// TestEncodeAllocatesOnce: Encode writes every section in place into a
// single buffer allocated at the output's exact size.
func TestEncodeAllocatesOnce(t *testing.T) {
	for _, delta := range []bool{false, true} {
		s := sampleSnapshot(delta)
		if out := ckpt.Encode(s); len(out) != cap(out) {
			t.Errorf("delta=%v: %d bytes in a %d-byte buffer", delta, len(out), cap(out))
		}
		if allocs := testing.AllocsPerRun(20, func() { ckpt.Encode(s) }); allocs != 1 {
			t.Errorf("delta=%v: Encode allocates %.1f times, want 1", delta, allocs)
		}
	}
}

// TestDecodeTruncatedAtEveryPrefix cuts the file at every byte offset:
// each prefix must decode to a *TruncatedError — the tolerated
// crash-mid-write shape — never a panic, success, or misclassification
// as corruption.
func TestDecodeTruncatedAtEveryPrefix(t *testing.T) {
	data := ckpt.Encode(sampleSnapshot(false))
	for i := 0; i < len(data); i++ {
		_, err := ckpt.Decode(data[:i])
		if err == nil {
			t.Fatalf("prefix %d/%d decoded successfully", i, len(data))
		}
		if !ckpt.IsTruncated(err) {
			t.Fatalf("prefix %d/%d: got %T (%v), want *TruncatedError", i, len(data), err, err)
		}
	}
}

// TestDecodeBitFlips flips one bit at every byte offset: every mutation
// must be refused with a structured error (hash mismatch, bad magic,
// version mismatch, or a malformed-payload classification) — a flipped
// checkpoint must never restore.
func TestDecodeBitFlips(t *testing.T) {
	data := ckpt.Encode(sampleSnapshot(false))
	mut := make([]byte, len(data))
	for i := 0; i < len(data); i++ {
		for _, bit := range []byte{0x01, 0x80} {
			copy(mut, data)
			mut[i] ^= bit
			_, err := ckpt.Decode(mut)
			if err == nil {
				t.Fatalf("flip at byte %d (bit %#x) decoded successfully", i, bit)
			}
			var ve *ckpt.VersionError
			var ce *ckpt.CorruptError
			var te *ckpt.TruncatedError
			if !errors.As(err, &ve) && !errors.As(err, &ce) && !errors.As(err, &te) {
				t.Fatalf("flip at byte %d: unstructured error %T: %v", i, err, err)
			}
		}
	}
}

func TestDecodeVersionMismatch(t *testing.T) {
	data := ckpt.Encode(sampleSnapshot(false))
	data[4] ^= 0xFF // little-endian version field
	_, err := ckpt.Decode(data)
	var ve *ckpt.VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("got %T (%v), want *VersionError", err, err)
	}
	if ve.Want != ckpt.Version {
		t.Errorf("VersionError.Want = %d", ve.Want)
	}
}

func TestWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.pok")
	s := sampleSnapshot(false)
	if err := ckpt.WriteFile(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := ckpt.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Error("file round trip lost state")
	}
	// Overwrite must replace atomically, leaving no temp litter.
	s2 := sampleSnapshot(false)
	s2.Meta.Insts = 99_999
	if err := ckpt.WriteFile(path, s2); err != nil {
		t.Fatal(err)
	}
	got2, err := ckpt.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Meta.Insts != 99_999 {
		t.Error("overwrite did not land")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("temp file litter: %d entries", len(ents))
	}
}

// TestWriterDeltaChain drives the disk Writer through full + delta
// snapshots and resolves the chain back with LoadChain.
func TestWriterDeltaChain(t *testing.T) {
	dir := t.TempDir()
	w := &ckpt.Writer{Dir: dir, RebaseEvery: 3}

	mk := func(insts uint64, partial bool, pages ...emu.MemPage) *ckpt.Snapshot {
		s := sampleSnapshot(false)
		s.Meta.Insts = insts
		s.Meta.BaseID, s.Meta.BaseFile = 0, ""
		s.Emu.Partial = partial
		s.Emu.ICount = insts
		s.Emu.Pages = pages
		return s
	}
	page := func(fill byte) []byte {
		b := make([]byte, emu.PageSize)
		for i := range b {
			b[i] = fill
		}
		return b
	}

	if !w.WantFull() {
		t.Fatal("first write must be full")
	}
	full := mk(1000, false,
		emu.MemPage{Num: 1, Data: page(0xA)},
		emu.MemPage{Num: 2, Data: page(0xB)})
	if err := w.Write(full); err != nil {
		t.Fatal(err)
	}
	if w.WantFull() {
		t.Fatal("second write should be a delta")
	}
	d1 := mk(2000, true, emu.MemPage{Num: 2, Data: page(0xC)})
	if err := w.Write(d1); err != nil {
		t.Fatal(err)
	}
	d2 := mk(3000, true, emu.MemPage{Num: 3, Data: page(0xD)})
	if err := w.Write(d2); err != nil {
		t.Fatal(err)
	}
	if !w.WantFull() {
		t.Fatal("fourth write must rebase")
	}

	got, err := ckpt.LoadChain(w.LastPath())
	if err != nil {
		t.Fatal(err)
	}
	if got.IsDelta() || got.Emu.Partial {
		t.Fatal("LoadChain returned a delta")
	}
	if got.Meta.Insts != 3000 {
		t.Errorf("merged Insts = %d", got.Meta.Insts)
	}
	wantPages := map[uint32]byte{1: 0xA, 2: 0xC, 3: 0xD}
	if len(got.Emu.Pages) != len(wantPages) {
		t.Fatalf("merged %d pages, want %d", len(got.Emu.Pages), len(wantPages))
	}
	for _, pg := range got.Emu.Pages {
		if pg.Data[0] != wantPages[pg.Num] {
			t.Errorf("page %d merged wrong generation (%#x)", pg.Num, pg.Data[0])
		}
	}
}

func TestWriterDeltaWithoutPriorRefused(t *testing.T) {
	w := &ckpt.Writer{Dir: t.TempDir()}
	s := sampleSnapshot(false)
	s.Emu.Partial = true
	if err := w.Write(s); err == nil {
		t.Fatal("delta with no prior snapshot accepted")
	}
}

// TestLoadChainBrokenLinks: a missing base, a base-ID mismatch, and a
// self-referencing cycle must all be refused with structured errors.
func TestLoadChainBrokenLinks(t *testing.T) {
	dir := t.TempDir()

	// Delta whose BaseFile does not exist.
	orphan := sampleSnapshot(true)
	orphan.Meta.BaseFile = "missing.pok"
	orphanPath := filepath.Join(dir, "orphan.pok")
	if err := ckpt.WriteFile(orphanPath, orphan); err != nil {
		t.Fatal(err)
	}
	if _, err := ckpt.LoadChain(orphanPath); err == nil {
		t.Error("orphan delta resolved")
	}

	// Base present but with the wrong snapshot ID.
	base := sampleSnapshot(false)
	base.Meta.ID = 99
	basePath := filepath.Join(dir, "base.pok")
	if err := ckpt.WriteFile(basePath, base); err != nil {
		t.Fatal(err)
	}
	mism := sampleSnapshot(true)
	mism.Meta.BaseID = 3
	mism.Meta.BaseFile = "base.pok"
	mismPath := filepath.Join(dir, "mism.pok")
	if err := ckpt.WriteFile(mismPath, mism); err != nil {
		t.Fatal(err)
	}
	var ce *ckpt.CorruptError
	if _, err := ckpt.LoadChain(mismPath); !errors.As(err, &ce) {
		t.Errorf("base-ID mismatch: got %v, want *CorruptError", err)
	}

	// Self-referencing cycle must hit the depth cap, not recurse forever.
	cyc := sampleSnapshot(true)
	cyc.Meta.ID = 3 // matches its own BaseID
	cyc.Meta.BaseFile = "cycle.pok"
	cycPath := filepath.Join(dir, "cycle.pok")
	if err := ckpt.WriteFile(cycPath, cyc); err != nil {
		t.Fatal(err)
	}
	if _, err := ckpt.LoadChain(cycPath); !errors.As(err, &ce) {
		t.Errorf("cycle: got %v, want *CorruptError", err)
	}
}

func TestWatchdogDeadline(t *testing.T) {
	fired := make(chan string, 1)
	w := &ckpt.Watchdog{
		Deadline: time.Now().Add(-time.Second),
		Poll:     time.Millisecond,
		Stop:     func(reason string) { fired <- reason },
	}
	cancel := w.Start()
	defer cancel()
	select {
	case reason := <-fired:
		if reason == "" {
			t.Error("empty stop reason")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog did not fire")
	}
}

func TestWatchdogHeapBudget(t *testing.T) {
	fired := make(chan string, 1)
	w := &ckpt.Watchdog{
		MaxHeapBytes: 1, // any live heap exceeds this
		Poll:         time.Millisecond,
		Stop:         func(reason string) { fired <- reason },
	}
	cancel := w.Start()
	defer cancel()
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog did not fire")
	}
}

func TestWatchdogDisabledIsNoop(t *testing.T) {
	w := &ckpt.Watchdog{Stop: func(string) { t.Error("fired with no budget") }}
	cancel := w.Start()
	cancel()
}
