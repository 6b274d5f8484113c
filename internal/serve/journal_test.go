package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"pok/internal/soak"
)

// journaled wires a fresh journal in dir into a test coordinator.
func journaled(t *testing.T, c *Coordinator, dir string) *Journal {
	t.Helper()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AttachJournal(j); err != nil {
		t.Fatal(err)
	}
	return j
}

// dumpState renders everything the journal must reconstruct — jobs,
// cells, resume cursors, leases, the pending queue in order,
// idempotency maps, counters — in a deterministic order. Deliberately
// excluded: lease expiry times (recovered leases get a fresh TTL),
// worker bookkeeping (ephemeral, not journaled), and resume snapshot
// blobs (the journal keeps only the cursor position).
func dumpState(c *Coordinator) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "nextJob=%d nextLease=%d\n", c.nextJob, c.nextLease)
	for _, id := range c.order {
		j := c.jobs[id]
		fmt.Fprintf(&b, "job %s kind=%s state=%s failed=%q\n", j.id, j.spec.Kind, j.state(), j.failed)
		for _, cl := range j.cells {
			fmt.Fprintf(&b, "  cell %d %s [%d,%d) st=%s cursor=%d base=%d/%d live=%d/%d/%d "+
				"fails=%d lease=%q worker=%q nonce=%q grant=%d runs=%d findings=%d rows=%d "+
				"resume=%s liveResume=%s\n",
				cl.id, cl.kind, cl.start, cl.end, cl.state, cl.cursor,
				cl.baseRuns, len(cl.baseFindings),
				cl.liveCursor, cl.liveRuns, len(cl.liveFindings),
				cl.fails, cl.lease, cl.worker, cl.nonce, cl.grantStart,
				cl.runs, len(cl.findings), len(cl.rows),
				dumpResume(cl.resume), dumpResume(cl.liveResume))
		}
	}
	var leases []string
	for id, cl := range c.leases {
		leases = append(leases, fmt.Sprintf("%s->%s/%d", id, cl.job.id, cl.id))
	}
	sort.Strings(leases)
	fmt.Fprintf(&b, "leases %v\n", leases)
	var queue []string
	for _, cl := range c.queue {
		queue = append(queue, fmt.Sprintf("%s/%d:%s", cl.job.id, cl.id, cl.state))
	}
	fmt.Fprintf(&b, "queue %v\n", queue)
	var sub []string
	for k, v := range c.submitted {
		sub = append(sub, k+"="+v)
	}
	sort.Strings(sub)
	var comp []string
	for k := range c.completed {
		comp = append(comp, k)
	}
	sort.Strings(comp)
	fmt.Fprintf(&b, "submitted %v completed %v\n", sub, comp)
	return b.String()
}

// dumpResume renders a resume cursor's position, without its blob.
func dumpResume(r *ResumeCursor) string {
	if r == nil {
		return "-"
	}
	return fmt.Sprintf("(%d,%d)", r.Program, r.Cell)
}

// TestJournalReplayEquivalence drives a scripted campaign — submit,
// leases, heartbeats, a steal, a release, a fail, a lease expiry, a
// second job — against a journaled coordinator, snapshotting state
// after every operation. Then it simulates a crash after EVERY journal
// record: each record-prefix of the log must replay without error, and
// every prefix that lands on an operation boundary must rebuild state
// identical to the live coordinator's snapshot at that moment.
func TestJournalReplayEquivalence(t *testing.T) {
	dir := t.TempDir()
	c, now := testCoordinator(time.Minute)
	j := journaled(t, c, dir)

	// Record the journal's byte length after every append so the test
	// can truncate to any record boundary. Called with both c.mu and
	// j.mu held, so it must only touch the filesystem.
	var offsets []int64
	j.afterAppend = func(int) {
		fi, err := os.Stat(j.Path())
		if err != nil {
			t.Errorf("stat journal: %v", err)
			return
		}
		offsets = append(offsets, fi.Size())
	}

	type snap struct {
		records int
		dump    string
	}
	var snaps []snap
	shot := func() { snaps = append(snaps, snap{j.Records(), dumpState(c)}) }

	// Two configs give every program a 2-cell matrix, so resume
	// cursors can stand between matrix cells.
	id1, err := c.Submit(JobSpec{Kind: "soak", Soak: &SoakSpec{
		BaseSeed: 41, Programs: 12, CellPrograms: 8,
		Configs: []string{"slice2", "slice4"}, Schedulers: []string{"event"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	shot()

	a1 := c.Lease("w1", "n1")
	if a1 == nil || a1.Start != 0 || a1.End != 8 {
		t.Fatalf("lease 1 = %+v, want [0,8)", a1)
	}
	shot()
	c.Heartbeat(Heartbeat{Lease: a1.Lease, Worker: "w1", Cursor: 2, Runs: 2,
		Findings: findings1(0)})
	shot()
	// Mid-program: inside matrix cell 1 of program 2. The lease later
	// expires, so replay must carry this cursor through the requeue.
	blob := []byte("mid-program-snapshot")
	c.Heartbeat(Heartbeat{Lease: a1.Lease, Worker: "w1", Cursor: 2, Runs: 3,
		Findings: findings1(0), Resume: &ResumeCursor{Program: 2, Cell: 1, Snap: blob}})
	shot()

	a2 := c.Lease("w2", "n2")
	if a2 == nil || a2.Start != 8 {
		t.Fatalf("lease 2 = %+v, want [8,12)", a2)
	}
	shot()
	c.Heartbeat(Heartbeat{Lease: a2.Lease, Worker: "w2", Cursor: 9, Runs: 1})
	shot()
	if err := c.Complete(CellResult{Lease: a2.Lease, Worker: "w2", Cursor: 12,
		Runs: 4, Findings: findings1(8)}); err != nil {
		t.Fatal(err)
	}
	shot()

	// Queue is empty: this lease steals [5,8) from w1's cell.
	a3 := c.Lease("w3", "n3")
	if a3 == nil || a3.Start != 5 || a3.End != 8 {
		t.Fatalf("steal lease = %+v, want [5,8)", a3)
	}
	shot()
	c.Heartbeat(Heartbeat{Lease: a3.Lease, Worker: "w3", Cursor: 6, Runs: 1,
		Findings: findings1(5)})
	shot()
	c.Release(ReleaseRequest{Lease: a3.Lease, Worker: "w3", Cursor: 6, Runs: 1,
		Findings: findings1(5), Resume: &ResumeCursor{Program: 6, Cell: 1, Snap: blob}})
	shot()

	a4 := c.Lease("w4", "n4")
	if a4 == nil || a4.Start != 6 || a4.End != 8 {
		t.Fatalf("requeued lease = %+v, want [6,8)", a4)
	}
	shot()
	c.Fail(a4.Lease, "w4", "boom")
	shot()

	// Expire w1's lease (reap runs at the top of the next call).
	*now = now.Add(2 * time.Minute)
	a5 := c.Lease("w5", "n5")
	if a5 == nil {
		t.Fatal("no lease after expiry requeue")
	}
	shot()
	c.Heartbeat(Heartbeat{Lease: a5.Lease, Worker: "w5", Cursor: a5.Start + 1, Runs: 1})
	shot()
	// The expiry requeued w1's cell too; lease it so the soak job's
	// whole wavefront is in flight before the bench job arrives.
	a5b := c.Lease("w5b", "n5b")
	if a5b == nil || a5b.Kind != "soak" {
		t.Fatalf("leftover soak lease = %+v", a5b)
	}
	shot()

	id2, err := c.Submit(JobSpec{Kind: "bench", Bench: &BenchSpec{
		Benchmarks: []string{"gzip"}, Configs: []string{"slice2"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	shot()
	a6 := c.Lease("w6", "n6")
	if a6 == nil || a6.Kind != "bench" {
		t.Fatalf("bench lease = %+v", a6)
	}
	shot()
	if err := c.Complete(CellResult{Lease: a6.Lease, Worker: "w6", Cursor: a6.End,
		Rows: []BenchRow{{Benchmark: "gzip", Config: "slice2", IPC: 1}}}); err != nil {
		t.Fatal(err)
	}
	shot()
	_ = id1
	_ = id2

	raw, err := os.ReadFile(j.Path())
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte(base64.StdEncoding.EncodeToString(blob))) {
		t.Fatal("journal holds a resume snapshot blob")
	}
	byRecords := map[int]string{}
	for _, s := range snaps {
		byRecords[s.records] = s.dump
	}
	for i, off := range offsets {
		rdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(rdir, journalFile), raw[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		rj, err := OpenJournal(rdir)
		if err != nil {
			t.Fatal(err)
		}
		rc, _ := testCoordinator(time.Minute)
		stats, err := rc.AttachJournal(rj)
		if err != nil {
			t.Fatalf("replay of %d-record prefix: %v", i+1, err)
		}
		if stats.Records != i+1 {
			t.Fatalf("prefix %d replayed %d records", i+1, stats.Records)
		}
		if want, ok := byRecords[i+1]; ok {
			if got := dumpState(rc); got != want {
				t.Fatalf("state after replaying %d records differs from live snapshot:\n--- live\n%s--- replayed\n%s",
					i+1, want, got)
			}
		}
		rj.Close()
	}
}

// findings1 builds a one-element findings list.
func findings1(program int) []soak.Finding {
	return []soak.Finding{finding(program)}
}

// TestJournalRecoveryReconnect: a coordinator crash loses nothing a
// surviving worker needs — the restarted coordinator recovers the live
// lease from the journal, and the worker's next heartbeat under the
// old lease ID is accepted (no Cancel), with the campaign completing
// to the same merged result.
func TestJournalRecoveryReconnect(t *testing.T) {
	dir := t.TempDir()
	c1, _ := testCoordinator(time.Minute)
	journaled(t, c1, dir)
	id := soakJob(t, c1, 4, 4)
	a := c1.Lease("w1", "n1")
	if a == nil {
		t.Fatal("no lease")
	}
	c1.Heartbeat(Heartbeat{Lease: a.Lease, Worker: "w1", Cursor: 2, Runs: 2,
		Findings: findings1(0)})
	// Crash: c1 is simply abandoned — nothing flushed beyond what the
	// journal already holds.

	c2, _ := testCoordinator(time.Minute)
	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c2.AttachJournal(j2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Jobs != 1 || stats.LiveLeases != 1 || stats.CleanShutdown {
		t.Fatalf("replay stats = %+v, want 1 job, 1 live lease, dirty", stats)
	}
	reply := c2.Heartbeat(Heartbeat{Lease: a.Lease, Worker: "w1", Cursor: 3, Runs: 3,
		Findings: findings1(0)})
	if reply.Cancel || reply.End != 4 {
		t.Fatalf("reconnect heartbeat = %+v, want accepted with end=4", reply)
	}
	if err := c2.Complete(CellResult{Lease: a.Lease, Worker: "w1", Cursor: 4,
		Runs: 4, Findings: findings1(0)}); err != nil {
		t.Fatal(err)
	}
	res, err := c2.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Soak.Runs != 4 || len(res.Soak.Findings) != 1 {
		t.Fatalf("recovered result = %+v", res.Soak)
	}
}

// TestJournalTornTail: a partial final line — the record being written
// when the process died — is tolerated; the rest replays.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	c1, _ := testCoordinator(time.Minute)
	journaled(t, c1, dir)
	soakJob(t, c1, 4, 4)
	if a := c1.Lease("w1", "n1"); a == nil {
		t.Fatal("no lease")
	}
	path := filepath.Join(dir, journalFile)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"hb","lease":"lease-1","curs`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c2, _ := testCoordinator(time.Minute)
	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c2.AttachJournal(j2)
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	if stats.Records != 2 || stats.Jobs != 1 || stats.LiveLeases != 1 {
		t.Fatalf("replay stats = %+v, want 2 records, 1 job, 1 lease", stats)
	}
}

// TestJournalCorruptMiddle: a malformed record followed by more
// records is real corruption and must fail the replay loudly.
func TestJournalCorruptMiddle(t *testing.T) {
	dir := t.TempDir()
	c1, _ := testCoordinator(time.Minute)
	journaled(t, c1, dir)
	soakJob(t, c1, 4, 4)
	path := filepath.Join(dir, journalFile)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("GARBAGE NOT JSON\n{\"t\":\"shutdown\"}\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c2, _ := testCoordinator(time.Minute)
	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.AttachJournal(j2); err == nil {
		t.Fatal("mid-log corruption replayed without error")
	}
}

// TestJournalCleanShutdown: Drain with no in-flight leases writes the
// shutdown marker; replay reports the clean shutdown. Drain with a
// live lease waits for it (completion here) and refuses new leases
// meanwhile.
func TestJournalCleanShutdown(t *testing.T) {
	dir := t.TempDir()
	c, _ := testCoordinator(time.Minute)
	journaled(t, c, dir)
	soakJob(t, c, 4, 4)
	a := c.Lease("w1", "n1")
	if a == nil {
		t.Fatal("no lease")
	}

	drained := make(chan error, 1)
	go func() { drained <- c.Drain(context.Background()) }()
	for !c.Draining() {
		time.Sleep(time.Millisecond)
	}
	if x := c.Lease("w2", "n2"); x != nil {
		t.Fatalf("draining coordinator leased a cell: %+v", x)
	}
	if _, err := c.Submit(JobSpec{Kind: "soak", Soak: &SoakSpec{Programs: 1}}); err == nil {
		t.Fatal("draining coordinator accepted a job")
	}
	if err := c.Complete(CellResult{Lease: a.Lease, Worker: "w1", Cursor: 4, Runs: 4}); err != nil {
		t.Fatal(err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}

	c2, _ := testCoordinator(time.Minute)
	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c2.AttachJournal(j2)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.CleanShutdown {
		t.Fatalf("replay stats = %+v, want clean shutdown", stats)
	}
}

// TestJournalDrainTimeout: Drain gives up when ctx expires with a
// lease still in flight, leaving no shutdown marker — the next replay
// recovers the lease as live.
func TestJournalDrainTimeout(t *testing.T) {
	dir := t.TempDir()
	c, _ := testCoordinator(time.Minute)
	journaled(t, c, dir)
	soakJob(t, c, 4, 4)
	if a := c.Lease("w1", "n1"); a == nil {
		t.Fatal("no lease")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := c.Drain(ctx); err == nil {
		t.Fatal("drain returned nil with a lease still live")
	}
	c2, _ := testCoordinator(time.Minute)
	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c2.AttachJournal(j2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CleanShutdown || stats.LiveLeases != 1 {
		t.Fatalf("replay stats = %+v, want dirty with 1 live lease", stats)
	}
}

// TestJournalFaultPoint: an append failure (disk full, here the
// FailAfter test hook) must not take the fleet down — the coordinator
// keeps serving from memory and surfaces the error on /api/metrics.
func TestJournalFaultPoint(t *testing.T) {
	dir := t.TempDir()
	c, _ := testCoordinator(time.Minute)
	j := journaled(t, c, dir)
	j.FailAfter = 1

	soakJob(t, c, 4, 4) // first record: fine
	if err := c.JournalErr(); err != nil {
		t.Fatalf("journal error after first append: %v", err)
	}
	a := c.Lease("w1", "n1") // second record: hits the fault point
	if a == nil {
		t.Fatal("lease was refused because of a journal fault")
	}
	if err := c.JournalErr(); err == nil {
		t.Fatal("journal fault not recorded")
	}
	if m := c.Metrics(); m.JournalError == "" {
		t.Fatal("journal fault not surfaced on the fleet view")
	}
}

// TestIdempotentRPCs: the three dedupe mechanisms retried (or
// transport-duplicated) RPCs lean on — submit keys, lease nonces, and
// the completed-lease set — each collapse duplicates into one
// application and one journal record.
func TestIdempotentRPCs(t *testing.T) {
	dir := t.TempDir()
	c, _ := testCoordinator(time.Minute)
	j := journaled(t, c, dir)

	spec := JobSpec{Kind: "soak", SubmitKey: "sub-x", Soak: &SoakSpec{
		BaseSeed: 41, Programs: 4, CellPrograms: 4,
		Configs: []string{"slice2"}, Schedulers: []string{"event"},
	}}
	id1, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatalf("duplicate submit created job %s != %s", id2, id1)
	}
	if j.Records() != 1 {
		t.Fatalf("duplicate submit journaled %d records, want 1", j.Records())
	}

	a1 := c.Lease("w1", "nonce-1")
	a2 := c.Lease("w1", "nonce-1")
	if a1 == nil || a2 == nil || a1.Lease != a2.Lease {
		t.Fatalf("retried lease got a different assignment: %+v vs %+v", a1, a2)
	}
	if j.Records() != 2 {
		t.Fatalf("duplicate lease journaled %d records, want 2", j.Records())
	}
	// A different nonce from the same worker is a new logical attempt:
	// nothing is pending, so it must NOT re-grant the existing lease.
	if x := c.Lease("w1", "nonce-2"); x != nil {
		t.Fatalf("fresh nonce re-granted a held lease: %+v", x)
	}

	res := CellResult{Lease: a1.Lease, Worker: "w1", Cursor: 4, Runs: 4,
		Findings: findings1(0)}
	if err := c.Complete(res); err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(res); err != nil {
		t.Fatalf("retried complete rejected: %v", err)
	}
	r, err := c.Result(id1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Soak.Runs != 4 || len(r.Soak.Findings) != 1 {
		t.Fatalf("duplicate complete double-counted: %+v", r.Soak)
	}

	// Completing past the cell end would smuggle overlapping coverage
	// into the merged report; it must be rejected, not folded in.
	soakJob(t, c, 4, 4)
	b := c.Lease("w2", "nonce-3")
	if b == nil {
		t.Fatal("no lease on the second job")
	}
	if err := c.Complete(CellResult{Lease: b.Lease, Worker: "w2", Cursor: b.End + 1}); err == nil {
		t.Fatal("completion beyond the cell end was accepted")
	}
}
