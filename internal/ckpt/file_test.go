package ckpt

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteAtomicFaults fails each WriteAtomic step in turn, over an
// existing file and into an empty directory. Every failure must surface
// an error wrapping the cause and leave no temp file behind. A failure
// before the rename must leave the target exactly as it was; a failed
// directory fsync comes after the rename, so the target then holds the
// complete new bytes.
func TestWriteAtomicFaults(t *testing.T) {
	errFault := errors.New("injected fault")
	c, w, sf, cl, r, sd := createTemp, writeFile, syncFile, closeFile, rename, syncDir
	restore := func() {
		createTemp, writeFile, syncFile, closeFile, rename, syncDir = c, w, sf, cl, r, sd
	}
	defer restore()

	steps := []struct {
		name string
		arm  func()
	}{
		{"create", func() {
			createTemp = func(string, string) (*os.File, error) { return nil, errFault }
		}},
		{"write", func() {
			// A torn write: half the bytes land, then the device fails.
			writeFile = func(f *os.File, b []byte) (int, error) {
				n, _ := f.Write(b[:len(b)/2])
				return n, errFault
			}
		}},
		{"fsync", func() { syncFile = func(*os.File) error { return errFault } }},
		{"close", func() { closeFile = func(*os.File) error { return errFault } }},
		{"rename", func() { rename = func(string, string) error { return errFault } }},
		{"dir-sync", func() { syncDir = func(string) error { return errFault } }},
	}
	oldData := []byte("previous contents\n")
	newData := bytes.Repeat([]byte("new contents "), 100)

	for _, st := range steps {
		for _, existed := range []bool{true, false} {
			dir := t.TempDir()
			path := filepath.Join(dir, "state.json")
			if existed {
				if err := os.WriteFile(path, oldData, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			st.arm()
			err := WriteAtomic(path, newData)
			restore()
			if !errors.Is(err, errFault) {
				t.Errorf("%s (existed=%v): error %v does not wrap the fault", st.name, existed, err)
			}

			var want []byte
			switch {
			case st.name == "dir-sync":
				want = newData
			case existed:
				want = oldData
			}
			got, rerr := os.ReadFile(path)
			switch {
			case want == nil && !os.IsNotExist(rerr):
				t.Errorf("%s (existed=%v): target exists after the failure (%v)", st.name, existed, rerr)
			case want != nil && !bytes.Equal(got, want):
				t.Errorf("%s (existed=%v): target holds %q, want %q (err %v)",
					st.name, existed, got, want, rerr)
			}
			assertOnlyTarget(t, dir, want != nil)
		}
	}
}

// TestWriteAtomicReplaces: a clean write replaces the target with mode
// 0644 and leaves nothing else in the directory.
func TestWriteAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	for _, data := range []string{"first\n", "second, longer\n", "3\n"} {
		if err := WriteAtomic(path, []byte(data)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != data {
			t.Fatalf("read %q (%v), want %q", got, err, data)
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Errorf("mode %v, want 0644", fi.Mode().Perm())
	}
	assertOnlyTarget(t, dir, true)
}

// assertOnlyTarget checks dir holds state.json (when present is set) and
// nothing else: in particular no leftover temp file.
func assertOnlyTarget(t *testing.T, dir string, present bool) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	want := 0
	if present {
		want = 1
	}
	if len(names) != want || (present && names[0] != "state.json") {
		t.Errorf("directory holds %v", names)
	}
}
