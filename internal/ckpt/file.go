package ckpt

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteFile writes an encoded snapshot atomically (see WriteAtomic).
func WriteFile(path string, s *Snapshot) error {
	return WriteAtomic(path, Encode(s))
}

// The steps of WriteAtomic, swapped one at a time by its fault test.
var (
	createTemp = os.CreateTemp
	writeFile  = (*os.File).Write
	syncFile   = (*os.File).Sync
	closeFile  = (*os.File).Close
	rename     = os.Rename
	syncDir    = SyncDir
)

// WriteAtomic is the one crash-safe way to replace a file: write a temp
// file in path's directory, fsync and close it, rename it over path
// (mode 0644), then fsync the directory so the rename survives a power
// loss too. A crash leaves the previous file or the complete new one,
// never a torn write. An error before the rename removes the temp file
// and leaves path untouched; after a failed directory fsync, path holds
// data but its durability is unconfirmed.
func WriteAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := createTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	if err = tmp.Chmod(0o644); err == nil {
		_, err = writeFile(tmp, data)
	}
	if err == nil {
		err = syncFile(tmp)
	}
	if err == nil {
		err = closeFile(tmp)
	}
	if err == nil {
		err = rename(tmp.Name(), path)
	}
	if err != nil {
		tmp.Close() // a harmless error if closeFile already ran
		os.Remove(tmp.Name())
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	return nil
}

// SyncDir fsyncs a directory, making the entries just created, renamed
// or removed in it durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// ReadFile decodes one snapshot file (which may be a delta; see
// LoadChain for resolving a full image).
func ReadFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	s, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %s: %w", path, err)
	}
	return s, nil
}

// maxChainDepth bounds delta-chain resolution; a deeper chain means a
// corrupt or cyclic BaseFile graph.
const maxChainDepth = 256

// LoadChain loads the snapshot at path, resolving its delta chain: a
// delta snapshot's BaseFile (relative to its own directory) is loaded
// recursively down to a full snapshot, parent identity is verified
// against BaseID, and the memory pages merge youngest-over-oldest. The
// returned snapshot is always full (Emu.Partial false) and ready for
// restore.
func LoadChain(path string) (*Snapshot, error) {
	return loadChain(path, 0)
}

func loadChain(path string, depth int) (*Snapshot, error) {
	if depth > maxChainDepth {
		return nil, &CorruptError{Reason: fmt.Sprintf("delta chain deeper than %d (cycle?) at %s", maxChainDepth, path)}
	}
	s, err := ReadFile(path)
	if err != nil {
		return nil, err
	}
	if !s.IsDelta() {
		return s, nil
	}
	if s.Meta.BaseFile == "" {
		return nil, &CorruptError{Reason: fmt.Sprintf("%s: delta snapshot without a base file", path)}
	}
	basePath := filepath.Join(filepath.Dir(path), s.Meta.BaseFile)
	base, err := loadChain(basePath, depth+1)
	if err != nil {
		return nil, err
	}
	if base.Meta.ID != s.Meta.BaseID {
		return nil, &CorruptError{Reason: fmt.Sprintf("%s: base %s has snapshot ID %d, want %d",
			path, basePath, base.Meta.ID, s.Meta.BaseID)}
	}
	if base.Meta.Benchmark != s.Meta.Benchmark || base.Meta.Config != s.Meta.Config ||
		base.Meta.Scheduler != s.Meta.Scheduler {
		return nil, &CorruptError{Reason: fmt.Sprintf("%s: base %s belongs to a different run", path, basePath)}
	}
	merged := *s
	merged.Emu = base.Emu.Merge(s.Emu)
	merged.Meta.BaseID = 0
	merged.Meta.BaseFile = ""
	return &merged, nil
}

// Writer is the on-disk Sink for periodic checkpoints: snapshots land
// in Dir as ckpt-<insts>.pok, written as dirty-page deltas against the
// previous snapshot with a full rebase snapshot every RebaseEvery
// writes (so chains stay short and old files can be pruned by hand).
type Writer struct {
	// Dir receives the snapshot files (created if missing).
	Dir string
	// RebaseEvery forces a full snapshot every N writes (0 = 8). The
	// first write is always full.
	RebaseEvery int

	n        int    // snapshots written
	lastName string // file name (not path) of the previous snapshot
	lastID   uint64
	lastPath string
}

// WantFull reports whether the next snapshot must carry the full memory
// image: the first write, and every RebaseEvery-th after that.
func (w *Writer) WantFull() bool {
	re := w.RebaseEvery
	if re <= 0 {
		re = 8
	}
	return w.n%re == 0
}

// Write assigns chain metadata and persists the snapshot atomically.
func (w *Writer) Write(s *Snapshot) error {
	if err := os.MkdirAll(w.Dir, 0o755); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	s.Meta.ID = uint64(w.n + 1)
	if s.Emu != nil && s.Emu.Partial {
		if w.lastName == "" {
			return fmt.Errorf("ckpt: delta snapshot with no prior snapshot in %s", w.Dir)
		}
		s.Meta.BaseID = w.lastID
		s.Meta.BaseFile = w.lastName
	} else {
		s.Meta.BaseID = 0
		s.Meta.BaseFile = ""
	}
	name := fmt.Sprintf("ckpt-%012d.pok", s.Meta.Insts)
	path := filepath.Join(w.Dir, name)
	if err := WriteFile(path, s); err != nil {
		return err
	}
	w.n++
	w.lastName = name
	w.lastID = s.Meta.ID
	w.lastPath = path
	return nil
}

// Count reports how many snapshots have been written.
func (w *Writer) Count() int { return w.n }

// LastPath returns the most recently written snapshot file ("" if
// none).
func (w *Writer) LastPath() string { return w.lastPath }

var _ Sink = (*Writer)(nil)
