package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pok/internal/ckpt"
	"pok/internal/metrics"
	"pok/internal/soak"
)

// Journal is the coordinator's write-ahead log: an append-only JSONL
// file recording every state transition — job submissions, lease
// grants, heartbeat cursor advances, steals, completions, failures,
// releases and expiries — so a restarted coordinator can rebuild the
// exact wavefront it died with. State transitions are fsync'd;
// heartbeat cursor records are appended without fsync (they only cost
// re-running a few programs if the very last ones are lost to a
// kernel crash — process crashes lose nothing, the page cache
// survives them).
//
// The log is replayed by Coordinator.AttachJournal. A torn final line
// (the record being appended when the process died) is tolerated and
// ignored; any other malformed record is corruption and fails the
// replay loudly.
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	records int

	// FailAfter, when > 0, makes every append past that many records
	// return an error — a test fault-point simulating a coordinator
	// that dies between a state transition and its journal append.
	FailAfter int

	// afterAppend, when non-nil, runs after each durable append with
	// the record count so far (test hook for replay-equivalence).
	afterAppend func(n int)
}

// journalPath is the log file inside a journal directory.
const journalFile = "journal.jsonl"

// OpenJournal opens (creating if needed) the journal in dir. The
// returned journal appends to any existing log, so the caller should
// replay it first via Coordinator.AttachJournal. It fsyncs dir, so a
// newly created log's directory entry survives a power loss along with
// the records fsync'd into it.
func OpenJournal(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: journal dir: %w", err)
	}
	path := filepath.Join(dir, journalFile)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: journal: %w", err)
	}
	if err := ckpt.SyncDir(dir); err != nil {
		f.Close()
		return nil, fmt.Errorf("serve: journal dir: %w", err)
	}
	return &Journal{f: f, path: path}, nil
}

// Path reports the journal file's location.
func (j *Journal) Path() string { return j.path }

// Records reports how many records this process has appended.
func (j *Journal) Records() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records
}

// Close syncs and closes the log file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// errJournalFault is returned by appends past FailAfter.
var errJournalFault = fmt.Errorf("serve: journal fault point reached")

// append writes one record; sync forces an fsync (state transitions
// do, heartbeat cursor records don't).
func (j *Journal) append(rec journalRecord, sync bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("serve: journal is closed")
	}
	if j.FailAfter > 0 && j.records >= j.FailAfter {
		return errJournalFault
	}
	if r := rec.Resume; r != nil {
		// The position is journaled; the snapshot blob is not.
		rec.Resume = &ResumeCursor{Program: r.Program, Cell: r.Cell}
	}
	blob, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if _, err := j.f.Write(append(blob, '\n')); err != nil {
		return err
	}
	if sync {
		if err := j.f.Sync(); err != nil {
			return err
		}
	}
	j.records++
	if j.afterAppend != nil {
		j.afterAppend(j.records)
	}
	return nil
}

// journalRecord is one JSONL line. T selects the transition; the other
// fields are that transition's payload (unused ones stay empty).
type journalRecord struct {
	T        string         `json:"t"`
	Job      string         `json:"job,omitempty"`
	Spec     *JobSpec       `json:"spec,omitempty"`
	Lease    string         `json:"lease,omitempty"`
	Cell     int            `json:"cell,omitempty"`
	Victim   int            `json:"victim,omitempty"`
	Worker   string         `json:"worker,omitempty"`
	Nonce    string         `json:"nonce,omitempty"`
	Cursor   int            `json:"cursor,omitempty"`
	Mid      int            `json:"mid,omitempty"`
	End      int            `json:"end,omitempty"`
	Runs     int            `json:"runs,omitempty"`
	Findings []soak.Finding `json:"findings,omitempty"`
	Rows     []BenchRow     `json:"rows,omitempty"`
	Msg      string         `json:"msg,omitempty"`
	// Snap / Ms carry a lease's metrics accumulator and its wall-clock
	// timestamp on hb/complete/release records, so replay restores the
	// per-cell snapshots and the coordinator's time-series ring exactly.
	Snap *metrics.Snapshot `json:"snap,omitempty"`
	Ms   int64             `json:"ms,omitempty"`
	// Resume is a lease's instruction-granular cursor on hb/release
	// records. Live records carry the snapshot blob; the journal keeps
	// only (program, matrix cell), so it stays small.
	Resume *ResumeCursor `json:"resume,omitempty"`
}

// Record type tags.
const (
	recSubmit   = "submit"
	recLease    = "lease"
	recHB       = "hb"
	recSteal    = "steal"
	recComplete = "complete"
	recFail     = "fail"
	recRelease  = "release"
	recExpire   = "expire"
	recShutdown = "shutdown"
)

// ReplayStats summarizes a journal replay.
type ReplayStats struct {
	// Records is how many journal records were applied.
	Records int
	// Jobs is the number of jobs recovered.
	Jobs int
	// PendingCells / LiveLeases describe the recovered wavefront.
	PendingCells int
	LiveLeases   int
	// CleanShutdown reports whether the log ends with a drain marker
	// (false means the previous coordinator crashed mid-campaign).
	CleanShutdown bool
}

// AttachJournal replays the journal's existing records into the
// coordinator — which must be freshly constructed — then makes every
// future state transition append to it. Recovered leases get a fresh
// TTL from now, so workers that survived the coordinator reconnect
// through their existing lease IDs on their next heartbeat, and
// workers that died expire and requeue as usual.
func (c *Coordinator) AttachJournal(j *Journal) (ReplayStats, error) {
	var st ReplayStats
	rf, err := os.Open(j.path)
	if err != nil {
		return st, fmt.Errorf("serve: journal replay: %w", err)
	}
	defer rf.Close()

	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.jobs) != 0 || c.journal != nil {
		return st, fmt.Errorf("serve: AttachJournal needs a fresh coordinator")
	}
	sc := bufio.NewScanner(rf)
	sc.Buffer(make([]byte, 0, 1<<20), 256<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			// A torn final line is the expected signature of a crash
			// mid-append; anything followed by more records is real
			// corruption.
			if tornTail(sc) {
				break
			}
			return st, fmt.Errorf("serve: journal record %d: %w", line, err)
		}
		st.CleanShutdown = rec.T == recShutdown
		if err := c.applyLocked(rec); err != nil {
			return st, fmt.Errorf("serve: journal record %d (%s): %w", line, rec.T, err)
		}
		st.Records++
	}
	if err := sc.Err(); err != nil {
		return st, fmt.Errorf("serve: journal replay: %w", err)
	}
	c.journal = j
	j.mu.Lock()
	j.records = st.Records
	j.mu.Unlock()

	st.Jobs = len(c.jobs)
	st.LiveLeases = len(c.leases)
	st.PendingCells = len(c.queue)
	return st, nil
}

// tornTail reports whether the scanner is at the journal's end — the
// undecodable record is the torn last line of a crash, not corruption
// in the middle of the log.
func tornTail(sc *bufio.Scanner) bool {
	return !sc.Scan()
}

// commitLocked makes one state transition: it journals rec, then
// applies it through applyLocked — the same function replay runs — so
// a live coordinator and one rebuilt from its journal cannot drift
// apart. An append failure is remembered (JournalErr) but does not
// block the fleet: the coordinator keeps serving from memory and the
// operator sees the error on /api/metrics. Live callers validate
// before committing, so apply never rejects their records; its errors
// guard replay of a damaged journal.
func (c *Coordinator) commitLocked(rec journalRecord, sync bool) {
	if c.journal != nil {
		if err := c.journal.append(rec, sync); err != nil && c.journalErr == nil {
			c.journalErr = err
		}
	}
	_ = c.applyLocked(rec)
}

// applyLocked is the coordinator's single state-transition function:
// live RPCs reach it through commitLocked, journal replay record by
// record. Worker bookkeeping is ephemeral and stays with the RPCs.
func (c *Coordinator) applyLocked(rec journalRecord) error {
	switch rec.T {
	case recSubmit:
		if rec.Spec == nil {
			return fmt.Errorf("submit without spec")
		}
		j := c.buildJobLocked(rec.Job, *rec.Spec)
		c.jobs[j.id] = j
		c.order = append(c.order, j.id)
		c.queue = append(c.queue, j.cells...)
		if key := rec.Spec.SubmitKey; key != "" {
			c.submitted[key] = j.id
		}
		var n int
		if _, err := fmt.Sscanf(rec.Job, "job-%d", &n); err == nil {
			c.nextJob = max(c.nextJob, n)
		}
	case recSteal:
		j, ok := c.jobs[rec.Job]
		if !ok {
			return fmt.Errorf("steal on unknown job %q", rec.Job)
		}
		if rec.Victim >= len(j.cells) {
			return fmt.Errorf("steal victim cell %d out of range", rec.Victim)
		}
		victim := j.cells[rec.Victim]
		stolen := &cell{
			job: j, id: len(j.cells), kind: "soak",
			start: rec.Mid, end: victim.end, cursor: rec.Mid, liveCursor: rec.Mid,
		}
		if stolen.id != rec.Cell {
			return fmt.Errorf("steal produced cell %d, journal says %d", stolen.id, rec.Cell)
		}
		victim.end = rec.Mid
		j.cells = append(j.cells, stolen)
		// The lease record that follows hands the stolen cell to the
		// thief. Queue it meanwhile so a crash between the two records
		// cannot strand it.
		c.queue = append(c.queue, stolen)
	case recLease:
		j, ok := c.jobs[rec.Job]
		if !ok {
			return fmt.Errorf("lease on unknown job %q", rec.Job)
		}
		if rec.Cell >= len(j.cells) {
			return fmt.Errorf("lease cell %d out of range", rec.Cell)
		}
		c.grantLocked(j.cells[rec.Cell], rec.Lease, rec.Worker, rec.Nonce)
		var n int
		if _, err := fmt.Sscanf(rec.Lease, "lease-%d", &n); err == nil {
			c.nextLease = max(c.nextLease, n)
		}
	case recHB:
		if cl, ok := c.leases[rec.Lease]; ok {
			setLive(cl, rec)
			cl.expiry = c.now().Add(c.leaseTTL)
			if rec.Snap != nil {
				c.appendSampleLocked(rec.Ms, rec.Worker, cl, rec.Snap)
			}
		}
	case recComplete:
		cl, ok := c.leases[rec.Lease]
		if !ok {
			return fmt.Errorf("complete on unknown lease %q", rec.Lease)
		}
		c.completeLocked(cl, rec)
	case recRelease:
		if cl, ok := c.leases[rec.Lease]; ok {
			setLive(cl, rec)
			c.requeueLocked(cl, rec.Lease)
		}
	case recFail, recExpire:
		if cl, ok := c.leases[rec.Lease]; ok {
			c.requeueLocked(cl, rec.Lease)
			msg := rec.Msg
			if rec.T == recExpire {
				msg = "lease expired"
			}
			c.strikeLocked(cl, msg)
		}
	case recShutdown:
		// Informational: the previous coordinator drained cleanly.
	default:
		return fmt.Errorf("unknown record type %q", rec.T)
	}
	return nil
}

// setLive records a lease's latest progress report (hb and release
// records). A report without a snapshot keeps the previous one.
func setLive(cl *cell, rec journalRecord) {
	cl.liveCursor = rec.Cursor
	cl.liveRuns = rec.Runs
	cl.liveFindings = rec.Findings
	cl.liveResume = rec.Resume
	if rec.Snap != nil {
		cl.liveSnap = rec.Snap
	}
}

// JournalErr reports the first journal append failure, if any.
func (c *Coordinator) JournalErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.journalErr
}

// Drain stops leasing new cells and waits until every in-flight lease
// completes, is released, or TTL-expires — heartbeats, completions and
// the dashboard keep being served meanwhile. When the last lease is
// gone it journals a clean-shutdown marker and returns nil; if ctx
// expires first the remaining leases stay journaled as live (the next
// replay recovers them) and ctx's error is returned.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	for {
		c.mu.Lock()
		c.reap()
		live := len(c.leases)
		c.mu.Unlock()
		if live == 0 {
			c.mu.Lock()
			c.commitLocked(journalRecord{T: recShutdown}, true)
			c.mu.Unlock()
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
}

// Draining reports whether the coordinator has stopped leasing.
func (c *Coordinator) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}
