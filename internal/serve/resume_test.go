package serve

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"pok/internal/check/inject"
	"pok/internal/ckpt"
	"pok/internal/gen"
	"pok/internal/soak"
)

// instCkptJob submits a 1-cell soak job with instruction-granular
// checkpointing armed.
func instCkptJob(t *testing.T, c *Coordinator, programs int) string {
	t.Helper()
	id, err := c.Submit(JobSpec{Kind: "soak", Soak: &SoakSpec{
		BaseSeed:     41,
		Programs:     programs,
		Configs:      []string{"slice2"},
		Schedulers:   []string{"event"},
		CellPrograms: programs,
		InstCkpt:     500,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestResumeCursorThroughRequeue walks the instruction-granular cursor
// through the full lease lifecycle: heartbeat it up, reap the lease,
// and the next assignment must hand the identical cursor back down; a
// later program-boundary heartbeat must invalidate it; a clean release
// must commit it; completion must clear it.
func TestResumeCursorThroughRequeue(t *testing.T) {
	c, now := testCoordinator(time.Second)
	instCkptJob(t, c, 4)

	a := c.Lease("w1", "")
	if a == nil || a.Start != 0 {
		t.Fatalf("first lease: %+v", a)
	}
	if a.Resume != nil {
		t.Fatalf("fresh cell handed a resume cursor: %+v", a.Resume)
	}

	// w1 finishes program 0, then drains a snapshot inside program 1,
	// then dies (lease expires).
	c.Heartbeat(Heartbeat{Lease: a.Lease, Worker: "w1", Cursor: 1, Runs: 1})
	rc := &ResumeCursor{Program: 1, Cell: 1, Snap: []byte("snapshot-bytes")}
	c.Heartbeat(Heartbeat{Lease: a.Lease, Worker: "w1", Cursor: 1, Runs: 1, Resume: rc})
	*now = now.Add(2 * time.Second)

	a2 := c.Lease("w2", "")
	if a2 == nil || a2.Start != 1 {
		t.Fatalf("requeued lease: %+v", a2)
	}
	if a2.Resume == nil || a2.Resume.Program != 1 || a2.Resume.Cell != 1 ||
		!bytes.Equal(a2.Resume.Snap, rc.Snap) {
		t.Fatalf("requeued assignment lost the mid-program cursor: %+v", a2.Resume)
	}

	// w2 dies without a single heartbeat: the committed cursor must
	// survive a second requeue untouched.
	*now = now.Add(2 * time.Second)
	a3 := c.Lease("w3", "")
	if a3 == nil || a3.Start != 1 || a3.Resume == nil ||
		!bytes.Equal(a3.Resume.Snap, rc.Snap) {
		t.Fatalf("silent lease death dropped the cursor: %+v", a3)
	}

	// w3 passes the program boundary (heartbeat without Resume): the
	// mid-program cursor is now stale and must be invalidated.
	c.Heartbeat(Heartbeat{Lease: a3.Lease, Worker: "w3", Cursor: 2, Runs: 3})
	*now = now.Add(2 * time.Second)
	a4 := c.Lease("w4", "")
	if a4 == nil || a4.Start != 2 {
		t.Fatalf("post-boundary lease: %+v", a4)
	}
	if a4.Resume != nil {
		t.Fatalf("stale cursor survived a program-boundary heartbeat: %+v", a4.Resume)
	}

	// w4 drains cleanly mid-program: Release carries the cursor, and
	// the next lease resumes from it without a retry strike.
	rc2 := &ResumeCursor{Program: 2, Cell: 0, Snap: []byte("release-snap")}
	c.Release(ReleaseRequest{Lease: a4.Lease, Worker: "w4",
		Cursor: 2, Runs: 3, Resume: rc2})
	a5 := c.Lease("w5", "")
	if a5 == nil || a5.Start != 2 || a5.Resume == nil ||
		!bytes.Equal(a5.Resume.Snap, rc2.Snap) {
		t.Fatalf("released cursor not handed back: %+v", a5)
	}

	// Completion retires the cell; the cursor must not leak anywhere.
	if err := c.Complete(CellResult{Lease: a5.Lease, Worker: "w5",
		Cursor: 4, Runs: 7}); err != nil {
		t.Fatal(err)
	}
	cl := c.jobs[c.order[0]].cells[0]
	if cl.resume != nil || cl.liveResume != nil {
		t.Fatalf("completed cell kept a resume cursor: %+v %+v", cl.resume, cl.liveResume)
	}
}

// TestResumeCursorStaleProgramIgnored: a heartbeat whose Resume points
// at a program behind its own cursor (worker bug or reordered
// delivery) must not be committed.
func TestResumeCursorStaleProgramIgnored(t *testing.T) {
	c, now := testCoordinator(time.Second)
	instCkptJob(t, c, 4)
	a := c.Lease("w1", "")
	c.Heartbeat(Heartbeat{Lease: a.Lease, Worker: "w1", Cursor: 2, Runs: 2,
		Resume: &ResumeCursor{Program: 1, Cell: 0, Snap: []byte("old")}})
	*now = now.Add(2 * time.Second)
	a2 := c.Lease("w2", "")
	if a2 == nil || a2.Start != 2 {
		t.Fatalf("requeued lease: %+v", a2)
	}
	if a2.Resume != nil {
		t.Fatalf("stale-program cursor was handed back: %+v", a2.Resume)
	}
}

// TestSoakCkptErrsOnStatus: the worker's checkpoint-failure counter
// rides the heartbeat stats through to /api/metrics.
func TestSoakCkptErrsOnStatus(t *testing.T) {
	c, _ := testCoordinator(time.Second)
	instCkptJob(t, c, 4)
	a := c.Lease("w1", "")
	c.Heartbeat(Heartbeat{Lease: a.Lease, Worker: "w1", Cursor: 1, Runs: 1,
		Stats: &WorkerStats{SoakCkptErrs: 3}})
	for _, w := range c.Metrics().Workers {
		if w.Name == "w1" {
			if w.Stats == nil || w.Stats.SoakCkptErrs != 3 {
				t.Fatalf("worker stats lost SoakCkptErrs: %+v", w.Stats)
			}
			return
		}
	}
	t.Fatal("worker w1 not on the fleet view")
}

// TestFleetMidProgramReleaseEquivalence: a lease drain-stopped inside
// matrix cell 1 of a program releases its cursor, and the campaign
// still merges to the single-process report — whether the coordinator
// restarts from its journal first (the cursor comes back without its
// snapshot blob) or the released blob is corrupt. Either way the next
// lease must skip matrix cell 0, which the released base already
// counts, and rerun cell 1 from its start; rerunning the program from
// cell 0 double-counts it.
func TestFleetMidProgramReleaseEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet equivalence soaks real programs; skipped in -short")
	}
	spec := JobSpec{Kind: "soak", Soak: &SoakSpec{
		BaseSeed: 41, Programs: 2,
		Configs: []string{"slice2", "slice4"}, Schedulers: []string{"event"},
		// Every cell diverges at instruction 70, after at least one
		// snapshot at the 30-instruction cadence.
		Hook:     &inject.Options{CorruptOn: true, CorruptAt: 70},
		NoReduce: true, Gen: gen.Options{Fragments: 6, LoopIters: 2, MaxInsts: 2000},
		InstCkpt: 30, CellPrograms: 2,
	}}
	soloJSON, _ := soloReport(t, spec.Soak)

	for _, tc := range []struct {
		name    string
		restart bool
		corrupt bool
	}{
		{name: "coordinator restart", restart: true},
		{name: "corrupt snapshot", corrupt: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c := NewCoordinator(time.Minute)
			j := journaled(t, c, dir)
			id, err := c.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}

			// Drive the first lease by hand up to the first snapshot of
			// matrix cell 1, then release it there.
			a := c.Lease("first", "")
			if a == nil || a.Start != 0 || a.End != 2 {
				t.Fatalf("first lease = %+v, want [0,2)", a)
			}
			opts := spec.Soak.Options(t.TempDir())
			opts.StartProgram, opts.Programs = a.Start, a.End
			var rel *ReleaseRequest
			opts.CellCursor = func(program, cell int, rep *soak.Report, s *ckpt.Snapshot) bool {
				if cell != 1 || rel != nil {
					return false
				}
				rel = &ReleaseRequest{Lease: a.Lease, Worker: "first",
					Cursor: program, Runs: rep.Runs,
					Findings: append([]soak.Finding(nil), rep.Findings...),
					Resume:   &ResumeCursor{Program: program, Cell: cell, Snap: ckpt.Encode(s)}}
				return true
			}
			part, err := soak.Run(opts, false)
			if err != nil {
				t.Fatal(err)
			}
			if rel == nil || !part.Stopped || rel.Cursor != 0 || rel.Runs != 1 {
				t.Fatalf("driven lease did not stop inside p0 cell 1: stopped=%v release=%+v",
					part.Stopped, rel)
			}
			if tc.corrupt {
				rel.Resume.Snap[0] ^= 0xff
			}
			c.Release(*rel)

			if tc.restart {
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
				c = NewCoordinator(time.Minute)
				journaled(t, c, dir)
			}

			srv := httptest.NewServer(c.Handler())
			defer srv.Close()
			w := &Worker{Client: NewClient(srv.URL), Name: "finisher",
				OutDir: t.TempDir(), MaxCells: 1}
			if err := w.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if fleetJSON := fleetReport(t, c, id); !bytes.Equal(soloJSON, fleetJSON) {
				t.Fatalf("fleet report differs from the single-process run\nsolo:  %s\nfleet: %s",
					soloJSON, fleetJSON)
			}
		})
	}
}
