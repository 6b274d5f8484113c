package serve

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"pok/internal/metrics"
	"pok/internal/soak"
)

// LeaseReadahead is the fleet's overlap-safety bound: a worker may run
// at most this many programs past the last heartbeat cursor the
// coordinator acknowledged, and a steal always splits at least
// LeaseReadahead+1 programs past the victim's last reported cursor.
// Together the two sides guarantee that a stolen range can never
// overlap work a victim computed during a heartbeat outage — the
// victim's true position is at most (acked cursor + readahead), the
// coordinator's liveCursor is at least the acked cursor (an ack the
// worker never received still advanced liveCursor), so the split point
// is strictly beyond anything the victim can have run.
const LeaseReadahead = 2

// Coordinator owns the fleet state: submitted jobs, the pending-cell
// queue, active leases and per-worker accounting. All methods are
// safe for concurrent use; lease expiry is applied lazily at the top
// of every call (reap), so no background janitor is required as long
// as anything — an idle worker polling, a dashboard refresh — touches
// the coordinator.
//
// With a journal attached (AttachJournal), every state transition is
// appended to the write-ahead log before the call returns, so a
// coordinator killed at any point can be restarted on the same journal
// and resume the wavefront exactly where it died.
type Coordinator struct {
	mu         sync.Mutex
	leaseTTL   time.Duration
	retryLimit int
	now        func() time.Time // injectable clock for tests

	jobs      map[string]*job
	order     []string // job ids in submission order
	queue     []*cell  // pending cells of live (not failed) jobs, FIFO
	leases    map[string]*cell
	workers   map[string]*workerInfo
	nextJob   int
	nextLease int

	// submitted maps a JobSpec.SubmitKey to its job id so a retried or
	// transport-duplicated submission cannot create a second job.
	submitted map[string]string
	// completed remembers finished lease ids so a retried Complete
	// whose first reply was lost is acknowledged instead of rejected.
	completed map[string]bool

	draining   bool
	journal    *Journal
	journalErr error

	// build is the provenance stamp surfaced on /api/metrics and
	// /metrics (SetBuild).
	build metrics.BuildInfo
	// samples is the bounded time-series ring behind the dashboard
	// sparklines and /api/metrics: one entry per snapshot-carrying
	// progress event (heartbeat advance, completion), oldest evicted
	// first. Samples are journaled with their timestamps, so a replayed
	// coordinator recovers the same ring.
	samples []MetricsSample
}

// metricsRingCap bounds the coordinator's sample ring.
const metricsRingCap = 512

// NewCoordinator builds a coordinator with the given lease TTL
// (0 = 10s). A worker that misses heartbeats for a full TTL is
// presumed dead and its cell is requeued from the last reported
// cursor.
func NewCoordinator(leaseTTL time.Duration) *Coordinator {
	if leaseTTL <= 0 {
		leaseTTL = 10 * time.Second
	}
	return &Coordinator{
		leaseTTL:   leaseTTL,
		retryLimit: 3,
		now:        time.Now,
		jobs:       make(map[string]*job),
		leases:     make(map[string]*cell),
		workers:    make(map[string]*workerInfo),
		submitted:  make(map[string]string),
		completed:  make(map[string]bool),
	}
}

// LeaseTTL reports the coordinator's lease duration (workers size
// their keepalive interval from the copy in each Assignment).
func (c *Coordinator) LeaseTTL() time.Duration { return c.leaseTTL }

// SetRetryLimit overrides how many times a cell may fail or expire
// before its whole job is marked failed (default 3).
func (c *Coordinator) SetRetryLimit(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retryLimit = n
}

// SetBuild stamps the coordinator's provenance (git SHA, go version),
// surfaced on /api/metrics and the pok_build_info series.
func (c *Coordinator) SetBuild(b metrics.BuildInfo) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.build = b
}

type cellState int

const (
	cellPending cellState = iota
	cellLeased
	cellDone
)

func (s cellState) String() string {
	switch s {
	case cellPending:
		return "pending"
	case cellLeased:
		return "leased"
	default:
		return "done"
	}
}

// cell is one shard of a job: a [start, end) soak program range, or a
// single benchmark of a bench sweep. cursor is the committed resume
// frontier — programs in [origin start, cursor) are covered by
// baseFindings/baseRuns (folded in from expired or failed leases);
// the live* fields mirror the current lease's last heartbeat.
type cell struct {
	job       *job
	id        int
	kind      string
	start     int // original range start (wavefront / merge order)
	end       int // exclusive; shrinks when the tail is stolen
	benchmark string

	state        cellState
	cursor       int
	baseFindings []soak.Finding
	baseRuns     int
	liveCursor   int
	liveFindings []soak.Finding
	liveRuns     int
	fails        int

	// resume is the committed instruction-granular cursor: always
	// positioned at `cursor` (the next program), it re-arms the next
	// lease's Assignment so a reaped or released worker's mid-program
	// position is not lost. liveResume is the current lease's latest
	// reported cursor, folded into resume on requeue exactly like
	// liveFindings/liveRuns fold into the base. The journal keeps both
	// as (program, matrix cell) without the snapshot blob, so after a
	// coordinator restart the next lease still skips the matrix cells
	// the base already counts and reruns the interrupted one from its
	// start.
	resume     *ResumeCursor
	liveResume *ResumeCursor

	// Metrics snapshots mirror the findings handling: baseSnap holds
	// folded-in accumulators from expired/released leases, liveSnap the
	// current lease's last reported accumulator, snap the final merged
	// outcome at completion.
	baseSnap *metrics.Snapshot
	liveSnap *metrics.Snapshot
	snap     *metrics.Snapshot

	// final outcome
	findings []soak.Finding
	runs     int
	rows     []BenchRow

	lease      string
	worker     string
	nonce      string // worker-chosen lease-request nonce (dedupe)
	grantStart int    // Assignment.Start handed out with the lease
	expiry     time.Time
}

type job struct {
	id        string
	spec      JobSpec
	cells     []*cell
	submitted time.Time
	failed    string
}

// cellsByStart lists the job's cells in program order — the merge
// order, since cells partition the program range.
func (j *job) cellsByStart() []*cell {
	cells := append([]*cell(nil), j.cells...)
	sort.Slice(cells, func(a, b int) bool { return cells[a].start < cells[b].start })
	return cells
}

func (j *job) done() bool {
	for _, c := range j.cells {
		if c.state != cellDone {
			return false
		}
	}
	return true
}

func (j *job) state() string {
	switch {
	case j.failed != "":
		return "failed"
	case j.done():
		return "done"
	default:
		for _, c := range j.cells {
			if c.state != cellPending {
				return "running"
			}
		}
		return "queued"
	}
}

type workerInfo struct {
	name      string
	firstSeen time.Time
	lastSeen  time.Time
	programs  int
	findings  int
	cells     int
	stats     *WorkerStats // last self-reported stats snapshot

	// Cumulative simulation throughput, accumulated as deltas between
	// consecutive snapshot reports of each lease. Ephemeral worker
	// bookkeeping — like stats, not journaled.
	insts     uint64
	cycles    int64
	wallNanos int64
}

// credit accrues what a lease's report rec adds beyond the lease's
// last report — programs, findings and simulation throughput — into
// the worker's counters. Call it before committing rec.
func (w *workerInfo) credit(cl *cell, rec journalRecord) {
	if rec.Cursor > cl.liveCursor {
		w.programs += rec.Cursor - cl.liveCursor
	}
	w.findings += len(rec.Findings) - len(cl.liveFindings)
	w.foldSnapDelta(cl.liveSnap, rec.Snap)
}

// foldSnapDelta accrues the growth between a lease's previous and
// current snapshot into the worker's cumulative throughput counters.
func (w *workerInfo) foldSnapDelta(prev, cur *metrics.Snapshot) {
	if cur == nil {
		return
	}
	var pi uint64
	var pc, pw int64
	if prev != nil {
		pi, pc, pw = prev.Insts, prev.Cycles, prev.WallNanos
	}
	if cur.Insts > pi {
		w.insts += cur.Insts - pi
	}
	if cur.Cycles > pc {
		w.cycles += cur.Cycles - pc
	}
	if cur.WallNanos > pw {
		w.wallNanos += cur.WallNanos - pw
	}
}

// buildJobLocked shards a normalized spec into a job. Only the submit
// transition calls it, so the sharding is a pure function of the spec
// and replay rebuilds the identical cells.
func (c *Coordinator) buildJobLocked(id string, spec JobSpec) *job {
	j := &job{id: id, spec: spec, submitted: c.now().UTC()}
	switch spec.Kind {
	case "soak":
		size := spec.Soak.cellSize()
		for lo := 0; lo < spec.Soak.Programs; lo += size {
			hi := min(lo+size, spec.Soak.Programs)
			j.cells = append(j.cells, &cell{
				job: j, id: len(j.cells), kind: "soak",
				start: lo, end: hi, cursor: lo, liveCursor: lo,
			})
		}
	case "bench":
		for i, b := range spec.Bench.Benchmarks {
			j.cells = append(j.cells, &cell{
				job: j, id: i, kind: "bench",
				start: i, end: i + 1, cursor: i, liveCursor: i,
				benchmark: b,
			})
		}
	}
	return j
}

// Submit validates, normalizes and shards a job, returning its id.
// A spec carrying a SubmitKey the coordinator has seen before returns
// the existing job's id instead of creating a duplicate — that makes
// submission safe to retry over a lossy transport.
func (c *Coordinator) Submit(spec JobSpec) (string, error) {
	if err := spec.normalize(); err != nil {
		return "", err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if spec.SubmitKey != "" {
		if id, ok := c.submitted[spec.SubmitKey]; ok {
			return id, nil
		}
	}
	if c.draining {
		return "", fmt.Errorf("serve: coordinator is draining; not accepting jobs")
	}
	rec := journalRecord{T: recSubmit, Job: fmt.Sprintf("job-%d", c.nextJob+1), Spec: &spec}
	c.commitLocked(rec, true)
	return rec.Job, nil
}

// Lease hands the next pending cell to worker, stealing the tail of a
// running soak cell when the queue is empty. It returns nil when there
// is no work (or the coordinator is draining). A non-empty nonce makes
// the call idempotent: retrying (or a transport duplicating) the same
// worker+nonce returns the original assignment instead of leaking a
// second lease that could only expire into a retry strike.
func (c *Coordinator) Lease(worker, nonce string) *Assignment {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reap()
	w := c.touch(worker)

	if nonce != "" {
		for _, cl := range c.leases {
			if cl.worker == worker && cl.nonce == nonce {
				cl.expiry = c.now().Add(c.leaseTTL)
				return c.assignmentLocked(cl)
			}
		}
	}
	if c.draining {
		return nil
	}

	var cl *cell
	if len(c.queue) > 0 {
		cl = c.queue[0]
	} else if cl = c.steal(); cl == nil {
		return nil
	}
	c.commitLocked(journalRecord{
		T: recLease, Lease: fmt.Sprintf("lease-%d", c.nextLease+1),
		Job: cl.job.id, Cell: cl.id, Worker: worker, Nonce: nonce, Cursor: cl.cursor,
	}, true)
	w.cells++
	return c.assignmentLocked(cl)
}

// grantLocked takes a cell off the pending queue and marks it leased.
func (c *Coordinator) grantLocked(cl *cell, lease, worker, nonce string) {
	cl.state = cellLeased
	cl.lease = lease
	cl.worker = worker
	cl.nonce = nonce
	cl.grantStart = cl.cursor
	cl.expiry = c.now().Add(c.leaseTTL)
	cl.liveCursor = cl.cursor
	cl.liveFindings = nil
	cl.liveRuns = 0
	cl.liveSnap = nil
	cl.liveResume = nil
	c.leases[lease] = cl
	c.queue = slices.DeleteFunc(c.queue, func(q *cell) bool { return q == cl })
}

func (c *Coordinator) assignmentLocked(cl *cell) *Assignment {
	a := &Assignment{
		Lease:     cl.lease,
		Job:       cl.job.id,
		Cell:      cl.id,
		Kind:      cl.kind,
		Start:     cl.grantStart,
		End:       cl.end,
		Benchmark: cl.benchmark,
		LeaseTTL:  c.leaseTTL,
		Spec:      cl.job.spec,
	}
	if cl.resume != nil && cl.resume.Program == cl.grantStart {
		a.Resume = cl.resume
	}
	return a
}

// steal splits the running soak cell with the most remaining programs
// and returns the new tail cell. The split point mid is at least
// LeaseReadahead+1 programs past the victim's last reported cursor:
// the victim never runs more than LeaseReadahead programs past a
// cursor the coordinator acknowledged (see LeaseReadahead), so even a
// victim that has been computing through a heartbeat outage stops
// before mid — no overlap, no gap.
func (c *Coordinator) steal() *cell {
	var victim *cell
	best := 0
	for _, cl := range c.leases {
		if cl.kind != "soak" || cl.job.failed != "" {
			continue
		}
		if remaining := cl.end - cl.liveCursor; remaining >= 4 && remaining > best {
			victim, best = cl, remaining
		}
	}
	if victim == nil {
		return nil
	}
	mid := max(victim.liveCursor+best/2, victim.liveCursor+LeaseReadahead+1)
	if victim.end-mid < 2 {
		return nil
	}
	j := victim.job
	rec := journalRecord{T: recSteal, Job: j.id, Victim: victim.id, Cell: len(j.cells), Mid: mid}
	c.commitLocked(rec, true)
	return j.cells[rec.Cell]
}

// Heartbeat extends a lease and records the worker's progress. The
// reply carries the cell's current end bound — which may have shrunk
// since the last heartbeat if the tail was stolen — and Cancel when
// the lease is no longer valid (expired and requeued, or the job
// failed), telling the worker to abandon the cell.
func (c *Coordinator) Heartbeat(hb Heartbeat) HeartbeatReply {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reap()
	w := c.touch(hb.Worker)
	if hb.Stats != nil {
		w.stats = hb.Stats
	}
	cl, ok := c.leases[hb.Lease]
	if !ok || cl.job.failed != "" {
		return HeartbeatReply{Cancel: true}
	}
	rec := journalRecord{
		T: recHB, Lease: hb.Lease, Worker: hb.Worker,
		Cursor: hb.Cursor, Runs: hb.Runs, Findings: hb.Findings,
		Resume: resumeAt(hb.Resume, hb.Cursor),
	}
	progressed := hb.Cursor != cl.liveCursor || hb.Runs != cl.liveRuns ||
		len(hb.Findings) != len(cl.liveFindings)
	if !progressed && sameResume(rec.Resume, cl.liveResume) {
		// A keepalive, or a duplicate (retry or transport dup): only
		// the lease is extended, nothing is journaled.
		cl.expiry = c.now().Add(c.leaseTTL)
		return HeartbeatReply{End: cl.end}
	}
	if progressed && hb.Snapshot != nil {
		// A heartbeat that only moves the mid-program cursor carries
		// the same accumulator as the last one; leaving it out keeps
		// the sample ring duplicate-free.
		rec.Snap, rec.Ms = hb.Snapshot, c.now().UnixMilli()
	}
	w.credit(cl, rec)
	// Heartbeat records are appended without fsync: losing the tail of
	// them to a crash only re-runs a few programs.
	c.commitLocked(rec, false)
	return HeartbeatReply{End: cl.end}
}

// Complete finishes a leased cell. Completion against an expired or
// reassigned lease is rejected — the cell's range may have been
// requeued and partially re-covered, so accepting the stale result
// could double-count programs — but completing an already-completed
// lease succeeds idempotently, so a worker whose first reply was lost
// in transit can retry safely.
func (c *Coordinator) Complete(res CellResult) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reap()
	w := c.touch(res.Worker)
	cl, ok := c.leases[res.Lease]
	if !ok {
		if c.completed[res.Lease] {
			return nil
		}
		return fmt.Errorf("serve: unknown or expired lease %q", res.Lease)
	}
	if res.Cursor > cl.end {
		// Should be impossible under the readahead bound; reject so a
		// buggy worker cannot smuggle overlapping coverage into the
		// merged report.
		return fmt.Errorf("serve: lease %s completed at cursor %d beyond cell end %d",
			res.Lease, res.Cursor, cl.end)
	}
	rec := journalRecord{
		T: recComplete, Lease: res.Lease, Worker: res.Worker,
		Cursor: res.Cursor, Runs: res.Runs, Findings: res.Findings,
		Rows: res.Rows, Snap: res.Snapshot, Ms: c.now().UnixMilli(),
	}
	w.credit(cl, rec)
	c.commitLocked(rec, true)
	return nil
}

// Release hands a lease back cleanly — a draining worker finished its
// current program (or drain-stopped inside one), heartbeat its final
// cursor and is exiting. The partial results fold into the cell's
// committed base and the cell requeues at the released cursor without
// a retry strike.
func (c *Coordinator) Release(rel ReleaseRequest) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reap()
	w := c.touch(rel.Worker)
	cl, ok := c.leases[rel.Lease]
	if !ok {
		return
	}
	rec := journalRecord{
		T: recRelease, Lease: rel.Lease, Worker: rel.Worker,
		Cursor: rel.Cursor, Runs: rel.Runs, Findings: rel.Findings,
		Snap: rel.Snapshot, Resume: resumeAt(rel.Resume, rel.Cursor),
	}
	w.credit(cl, rec)
	c.commitLocked(rec, true)
}

// Fail reports a hard worker-side error (not a finding — findings are
// results). The cell is requeued from its last reported cursor; after
// retryLimit failures the whole job is marked failed and its pending
// cells are dropped.
func (c *Coordinator) Fail(lease, worker, msg string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reap()
	c.touch(worker)
	if _, ok := c.leases[lease]; ok {
		c.commitLocked(journalRecord{T: recFail, Lease: lease, Worker: worker, Msg: msg}, true)
	}
}

// reap requeues every cell whose lease expired, folding the last
// heartbeat's partial results into the cell's committed base so the
// next worker resumes exactly at the dead worker's cursor.
func (c *Coordinator) reap() {
	now := c.now()
	for id, cl := range c.leases {
		if now.After(cl.expiry) {
			c.commitLocked(journalRecord{T: recExpire, Lease: id}, true)
		}
	}
}

// resumeAt keeps a reported instruction-granular cursor only while it
// points inside the program the program cursor stands on: a report at
// a program boundary (nil, or a cursor for an older program)
// invalidates any earlier mid-program position.
func resumeAt(r *ResumeCursor, cursor int) *ResumeCursor {
	if r != nil && r.Program == cursor {
		return r
	}
	return nil
}

func sameResume(a, b *ResumeCursor) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Program == b.Program && a.Cell == b.Cell && bytes.Equal(a.Snap, b.Snap)
}

// completeLocked applies a completion.
func (c *Coordinator) completeLocked(cl *cell, rec journalRecord) {
	delete(c.leases, rec.Lease)
	c.completed[rec.Lease] = true
	cl.state = cellDone
	cl.findings = append(cl.baseFindings, rec.Findings...)
	cl.runs = cl.baseRuns + rec.Runs
	cl.rows = rec.Rows
	cl.cursor = cl.end
	if rec.Snap != nil || cl.baseSnap != nil {
		final := &metrics.Snapshot{}
		final.Merge(cl.baseSnap)
		final.Merge(rec.Snap)
		cl.snap = final
	}
	if rec.Snap != nil {
		c.appendSampleLocked(rec.Ms, rec.Worker, cl, rec.Snap)
	}
	cl.baseSnap, cl.liveSnap = nil, nil
	cl.resume, cl.liveResume = nil, nil
	cl.lease, cl.worker, cl.nonce = "", "", ""
	cl.liveFindings, cl.liveRuns = nil, 0
}

// strikeLocked counts one failure/expiry against a cell and fails the
// whole job past the retry budget, dropping its pending cells.
func (c *Coordinator) strikeLocked(cl *cell, msg string) {
	cl.fails++
	if cl.fails > c.retryLimit {
		cl.job.failed = fmt.Sprintf("cell %d failed %d times: %s", cl.id, cl.fails, msg)
		c.queue = slices.DeleteFunc(c.queue, func(q *cell) bool { return q.job == cl.job })
	}
}

// requeueLocked ends a cell's lease without completing it: the lease's
// last report folds into the committed base and the cell goes back on
// the queue at the folded cursor.
func (c *Coordinator) requeueLocked(cl *cell, lease string) {
	delete(c.leases, lease)
	cl.baseFindings = append(cl.baseFindings, cl.liveFindings...)
	cl.baseRuns += cl.liveRuns
	if cl.liveSnap != nil {
		if cl.baseSnap == nil {
			cl.baseSnap = &metrics.Snapshot{}
		}
		cl.baseSnap.Merge(cl.liveSnap)
		cl.liveSnap = nil
	}
	cl.cursor = max(cl.cursor, cl.liveCursor)
	// Commit the lease's mid-program cursor if it still matches the
	// folded program cursor; keep an earlier committed one when the
	// dead lease made no progress at all; drop anything stale.
	switch {
	case cl.liveResume != nil && cl.liveResume.Program == cl.cursor:
		cl.resume = cl.liveResume
	case cl.resume != nil && cl.resume.Program == cl.cursor:
		// keep
	default:
		cl.resume = nil
	}
	cl.liveResume = nil
	cl.liveFindings, cl.liveRuns = nil, 0
	cl.liveCursor = cl.cursor
	cl.state = cellPending
	cl.lease, cl.worker, cl.nonce = "", "", ""
	if cl.job.failed == "" {
		c.queue = append(c.queue, cl)
	}
}

// appendSampleLocked pushes one time-series sample into the bounded
// ring, evicting the oldest entry at capacity. It runs inside
// applyLocked with the record's timestamp, so a recovered coordinator
// rebuilds the identical ring.
func (c *Coordinator) appendSampleLocked(ms int64, worker string, cl *cell, snap *metrics.Snapshot) {
	s := MetricsSample{
		Ms: ms, Worker: worker, Job: cl.job.id, Cell: cl.id,
		Cursor:   max(cl.cursor, cl.liveCursor),
		Programs: snap.Programs, Insts: snap.Insts, Cycles: snap.Cycles,
		WallNanos: snap.WallNanos, Findings: snap.Findings,
	}
	if len(c.samples) >= metricsRingCap {
		copy(c.samples, c.samples[1:])
		c.samples[len(c.samples)-1] = s
		return
	}
	c.samples = append(c.samples, s)
}

// cellSnapLocked assembles a cell's current metrics accumulator: the
// final snapshot for done cells, otherwise committed base + live lease
// merged into a fresh value (never aliasing cell state).
func cellSnapLocked(cl *cell) *metrics.Snapshot {
	if cl.state == cellDone {
		return cl.snap
	}
	if cl.baseSnap == nil && cl.liveSnap == nil {
		return nil
	}
	acc := &metrics.Snapshot{}
	acc.Merge(cl.baseSnap)
	acc.Merge(cl.liveSnap)
	return acc
}

func (c *Coordinator) touch(name string) *workerInfo {
	if name == "" {
		name = "anonymous"
	}
	w, ok := c.workers[name]
	if !ok {
		w = &workerInfo{name: name, firstSeen: c.now()}
		c.workers[name] = w
	}
	w.lastSeen = c.now()
	return w
}

// Result assembles a completed job's merged outcome. Soak findings
// merge in cell start order; because cells partition [0, Programs)
// and each cell's findings are already in program order, the merged
// list is exactly the single-process campaign's list.
func (c *Coordinator) Result(id string) (*JobResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reap()
	j, ok := c.jobs[id]
	if !ok {
		return nil, fmt.Errorf("serve: unknown job %q", id)
	}
	if j.failed != "" {
		return nil, fmt.Errorf("serve: job %s failed: %s", id, j.failed)
	}
	if !j.done() {
		return nil, fmt.Errorf("serve: job %s is not finished", id)
	}
	cells := j.cellsByStart()
	switch j.spec.Kind {
	case "soak":
		s := j.spec.Soak
		rep := &soak.Report{
			BaseSeed:    s.BaseSeed,
			Programs:    s.Programs,
			Configs:     s.Configs,
			Schedulers:  s.Schedulers,
			InjectSeeds: s.InjectSeeds,
		}
		for _, cl := range cells {
			rep.Runs += cl.runs
			rep.Findings = append(rep.Findings, cl.findings...)
		}
		return &JobResult{Soak: rep}, nil
	default:
		var rows []BenchRow
		for _, cl := range cells {
			rows = append(rows, cl.rows...)
		}
		return &JobResult{Bench: rows}, nil
	}
}
