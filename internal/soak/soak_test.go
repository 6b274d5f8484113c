package soak

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pok/internal/check/inject"
	"pok/internal/gen"
)

// small returns campaign options scaled down for unit-test speed: tiny
// programs, one config, one scheduler, bounded reduction.
func small(t *testing.T) Options {
	t.Helper()
	dir := t.TempDir()
	return Options{
		BaseSeed:   41,
		Programs:   3,
		Configs:    []string{"slice2"},
		Schedulers: []string{"event"},
		OutDir:     dir,
		Checkpoint: filepath.Join(dir, "cp.json"),
		Gen: gen.Options{
			Fragments: 6,
			LoopIters: 2,
			MaxInsts:  2000,
		},
		ReduceMaxTests: 64,
	}
}

// TestSoakCleanRun: a fault-free campaign over generated programs must
// produce zero findings (the emulator and the timing cores agree by
// construction) and count every cell.
func TestSoakCleanRun(t *testing.T) {
	opts := small(t)
	rep, err := Run(opts, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 0 {
		t.Fatalf("clean soak produced findings: %+v", rep.Findings)
	}
	if rep.Runs != opts.Programs {
		t.Fatalf("ran %d cells, want %d", rep.Runs, opts.Programs)
	}
	if rep.Resumed {
		t.Fatal("fresh run marked resumed")
	}
}

// TestSoakCatchesSeededFault is the end-to-end proof the ISSUE asks
// for: with a deliberate corrupt hook seeded into every clean cell, the
// soak must catch the divergence, the reducer must shrink it to a tiny
// body, and the written bundle must reproduce standalone.
func TestSoakCatchesSeededFault(t *testing.T) {
	opts := small(t)
	opts.Programs = 1
	opts.Hook = &inject.Options{CorruptOn: true, CorruptAt: 20}
	rep, err := Run(opts, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 1 {
		t.Fatalf("seeded fault produced %d findings, want 1: %+v",
			len(rep.Findings), rep.Findings)
	}
	f := rep.Findings[0]
	if f.Kind != "divergence" {
		t.Fatalf("finding kind %q, want divergence (%+v)", f.Kind, f)
	}
	if f.ReducedInsts < 0 || f.ReducedInsts > 12 {
		t.Fatalf("reduced body is %d insts, want 0..12", f.ReducedInsts)
	}
	if f.Bundle == "" {
		t.Fatal("finding carries no bundle")
	}

	dir := filepath.Join(opts.OutDir, f.Bundle)
	for _, name := range []string{"prog.s", "repro.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("bundle incomplete: %v", err)
		}
	}
	b, res, err := ReplayBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Reproduces(res) {
		t.Fatalf("bundle replay classified %+v, want kind=%s field=%s",
			res.Outcome, b.Kind, b.Field)
	}
}

// TestSoakResumeEquivalence: killing a campaign after a checkpoint and
// resuming it must cover exactly the seed set an uninterrupted campaign
// covers — same runs, same findings, byte for byte. The corrupt hook
// makes every cell a finding so the comparison is non-trivial.
func TestSoakResumeEquivalence(t *testing.T) {
	hook := &inject.Options{CorruptOn: true, CorruptAt: 20}

	full := small(t)
	full.Hook = hook
	fullRep, err := Run(full, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(fullRep.Findings) != full.Programs {
		t.Fatalf("full run: %d findings, want %d", len(fullRep.Findings), full.Programs)
	}

	// Interrupted: stop after 1 program (the final checkpoint write
	// plays the role of the mid-flight snapshot), then resume to the
	// full target.
	part := small(t)
	part.Hook = hook
	part.Programs = 1
	if _, err := Run(part, false); err != nil {
		t.Fatal(err)
	}
	part.Programs = full.Programs
	resumed, err := Run(part, true)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Resumed {
		t.Fatal("resumed run not marked resumed")
	}
	if resumed.Runs != fullRep.Runs {
		t.Fatalf("resumed covered %d runs, full run covered %d", resumed.Runs, fullRep.Runs)
	}
	if !reflect.DeepEqual(resumed.Findings, fullRep.Findings) {
		t.Fatalf("resumed findings differ from uninterrupted run:\nresumed: %+v\nfull:    %+v",
			resumed.Findings, fullRep.Findings)
	}
}

// TestResumeRefusesDifferentCampaign: a checkpoint written by one
// campaign must not seed a campaign with different coverage options.
func TestResumeRefusesDifferentCampaign(t *testing.T) {
	opts := small(t)
	opts.Programs = 1
	if _, err := Run(opts, false); err != nil {
		t.Fatal(err)
	}
	opts.Configs = []string{"slice4"} // different coverage
	if _, err := Run(opts, true); err == nil {
		t.Fatal("resume with different campaign options must be refused")
	}
	// Extending the program target is a valid resume (pacing knob).
	opts.Configs = []string{"slice2"}
	opts.Programs = 2
	if _, err := Run(opts, true); err != nil {
		t.Fatalf("extending the program target must be a valid resume: %v", err)
	}
}

// TestCheckpointAtomicityAndVersion: round trip, version gate.
func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "cp.json")
	cp := &Checkpoint{
		Version: checkpointVersion, Sig: "abc", BaseSeed: 9,
		NextProgram: 3, Runs: 12,
		Findings: []Finding{{Program: 1, Kind: "panic", ReducedInsts: -1}},
	}
	if err := SaveCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Fatalf("round trip: got %+v want %+v", got, cp)
	}
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if len(names) != 1 || names[0] != "cp.json" {
		t.Fatalf("checkpoint directory holds %v, want only cp.json", names)
	}
	cp.Version = 99
	if err := SaveCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("version mismatch accepted")
	}
}

// TestGenerateRecovery: generate must return a program (and no panic
// text) for every valid option set — the recover seam only engages on a
// generator bug, which the soak then attributes to the seed.
func TestGenerateRecovery(t *testing.T) {
	p, text := generate(gen.Options{Fragments: 4}, 123)
	if p == nil || text != "" {
		t.Fatalf("generate(valid) = (%v, %q)", p, text)
	}
	if p.Seed != 123 {
		t.Fatalf("seed not threaded: %d", p.Seed)
	}
}
