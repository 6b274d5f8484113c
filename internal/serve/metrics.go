package serve

import (
	"fmt"
	"slices"
	"sort"

	"pok/internal/metrics"
	"pok/internal/profile"
	"pok/internal/sig"
	"pok/internal/soak"
	"pok/internal/stats"
)

// FleetMetrics is the coordinator's one view of the fleet: jobs with
// their cell wavefronts, merged telemetry and deduped findings,
// workers with their throughput and RPC health, and the sample ring.
// It is served as JSON at /api/metrics (the dashboard's only source)
// and rendered as Prometheus text at /metrics. Cardinality is bounded
// by construction: jobs × configs × NumComponents CPI series, one row
// per worker, feedLimit findings per job and a fixed-capacity sample
// ring.
type FleetMetrics struct {
	// Build is the coordinator's provenance stamp (git SHA + go
	// version), so archived fleet views are attributable.
	Build          *metrics.BuildInfo `json:"build,omitempty"`
	LeaseTTLMillis int64              `json:"lease_ttl_ms"`
	QueueDepth     int                `json:"queue_depth"`
	Draining       bool               `json:"draining,omitempty"`
	Journal        string             `json:"journal,omitempty"`
	JournalError   string             `json:"journal_error,omitempty"`
	Jobs           []JobMetrics       `json:"jobs,omitempty"`
	Workers        []WorkerMetrics    `json:"workers,omitempty"`
	// Samples is the bounded time-series ring (oldest first): one entry
	// per snapshot-carrying progress event. The dashboard derives the
	// per-worker throughput sparklines from consecutive deltas.
	Samples []MetricsSample `json:"samples,omitempty"`
}

// JobMetrics is one job's live view: the cell wavefront, progress
// counters, the fold of every cell's telemetry snapshot (committed
// base + live lease + final outcomes), the deduped finding classes and
// a bounded findings feed. GET /api/jobs/{id} serves the same row.
type JobMetrics struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	State    string `json:"state"`
	Failed   string `json:"failed,omitempty"`
	Programs int    `json:"programs"`
	Done     int    `json:"done"`
	Runs     int    `json:"runs"`
	Findings int    `json:"findings"`
	// Snapshot is the job-wide merged accumulator; its per-config CPI
	// stacks keep the sum-equals-cycles invariant under merge.
	Snapshot *metrics.Snapshot `json:"snapshot,omitempty"`
	Cells    []CellMetrics     `json:"cells,omitempty"`
	Deduped  []sig.Class       `json:"deduped,omitempty"`
	Feed     []soak.Finding    `json:"feed,omitempty"`
}

// feedLimit bounds the findings feed per job.
const feedLimit = 50

// CellMetrics is one cell of the job wavefront: its range, cursor and
// lease, the runs and findings the coordinator holds for it, and its
// telemetry throughput counters (full stacks live on the job
// snapshot).
type CellMetrics struct {
	ID        int    `json:"id"`
	Start     int    `json:"start"`
	End       int    `json:"end"`
	Cursor    int    `json:"cursor"`
	State     string `json:"state"`
	Worker    string `json:"worker,omitempty"`
	Runs      int    `json:"runs"`
	Findings  int    `json:"findings"`
	Insts     uint64 `json:"insts,omitempty"`
	Cycles    int64  `json:"cycles,omitempty"`
	WallNanos int64  `json:"wall_nanos,omitempty"`
}

// WorkerMetrics is one worker's fleet-side accounting, cumulative
// throughput and self-reported RPC health (Stats). LastSeenMillis is
// the unix-ms of the worker's last RPC: a stable timestamp rather than
// a render-time "idle for" delta, so the payload — and its ETag — only
// changes when fleet state does; viewers derive idleness client-side.
type WorkerMetrics struct {
	Name           string       `json:"name"`
	LastSeenMillis int64        `json:"last_seen_ms"`
	Cells          int          `json:"cells"`
	Programs       int          `json:"programs"`
	ProgramsPerSec float64      `json:"programs_per_sec"`
	Findings       int          `json:"findings"`
	Insts          uint64       `json:"insts,omitempty"`
	Cycles         int64        `json:"cycles,omitempty"`
	WallNanos      int64        `json:"wall_nanos,omitempty"`
	MinstPerSec    float64      `json:"minst_per_sec,omitempty"`
	Stats          *WorkerStats `json:"stats,omitempty"`
}

// MetricsSample is one entry of the coordinator's time-series ring: a
// lease's cumulative snapshot counters at one progress event. Ms is
// the coordinator's wall clock (journaled, so replay restores the ring
// byte-identically).
type MetricsSample struct {
	Ms        int64  `json:"ms"`
	Worker    string `json:"worker"`
	Job       string `json:"job"`
	Cell      int    `json:"cell"`
	Cursor    int    `json:"cursor"`
	Programs  int    `json:"programs"`
	Insts     uint64 `json:"insts"`
	Cycles    int64  `json:"cycles,omitempty"`
	WallNanos int64  `json:"wall_nanos,omitempty"`
	Findings  int    `json:"findings,omitempty"`
}

// Metrics assembles the fleet view.
func (c *Coordinator) Metrics() *FleetMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reap()
	m := &FleetMetrics{
		LeaseTTLMillis: c.leaseTTL.Milliseconds(),
		QueueDepth:     len(c.queue),
		Draining:       c.draining,
	}
	if c.build != (metrics.BuildInfo{}) {
		b := c.build
		m.Build = &b
	}
	if c.journal != nil {
		m.Journal = c.journal.Path()
	}
	if c.journalErr != nil {
		m.JournalError = c.journalErr.Error()
	}
	for _, id := range c.order {
		m.Jobs = append(m.Jobs, jobMetricsLocked(c.jobs[id]))
	}

	names := make([]string, 0, len(c.workers))
	for n := range c.workers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		w := c.workers[n]
		wm := WorkerMetrics{
			Name:           w.name,
			LastSeenMillis: w.lastSeen.UnixMilli(),
			Cells:          w.cells,
			Programs:       w.programs,
			Findings:       w.findings,
			Insts:          w.insts,
			Cycles:         w.cycles,
			WallNanos:      w.wallNanos,
			Stats:          w.stats,
		}
		if alive := w.lastSeen.Sub(w.firstSeen); alive > 0 {
			wm.ProgramsPerSec = float64(w.programs) / alive.Seconds()
		}
		if w.wallNanos > 0 {
			wm.MinstPerSec = float64(w.insts) / (float64(w.wallNanos) / 1e9) / 1e6
		}
		m.Workers = append(m.Workers, wm)
	}

	m.Samples = append([]MetricsSample(nil), c.samples...)
	return m
}

// Job returns one job's row of the fleet view.
func (c *Coordinator) Job(id string) (*JobMetrics, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reap()
	j, ok := c.jobs[id]
	if !ok {
		return nil, fmt.Errorf("serve: unknown job %q", id)
	}
	jm := jobMetricsLocked(j)
	return &jm, nil
}

// jobMetricsLocked builds one job's row of the fleet view.
func jobMetricsLocked(j *job) JobMetrics {
	jm := JobMetrics{ID: j.id, Kind: j.spec.Kind, State: j.state(), Failed: j.failed}
	var dedupe sig.Deduper
	for _, cl := range j.cellsByStart() {
		cursor := max(cl.cursor, cl.liveCursor)
		runs, known := cl.runs, cl.findings
		if cl.state != cellDone {
			runs = cl.baseRuns + cl.liveRuns
			known = slices.Concat(cl.baseFindings, cl.liveFindings)
		}
		cm := CellMetrics{
			ID: cl.id, Start: cl.start, End: cl.end, Cursor: cursor,
			State: cl.state.String(), Worker: cl.worker,
			Runs: runs, Findings: len(known),
		}
		for _, f := range known {
			dedupe.Add(f.Signature())
			if len(jm.Feed) < feedLimit {
				jm.Feed = append(jm.Feed, f)
			}
		}
		if s := cellSnapLocked(cl); s != nil {
			cm.Insts, cm.Cycles, cm.WallNanos = s.Insts, s.Cycles, s.WallNanos
			if jm.Snapshot == nil {
				jm.Snapshot = &metrics.Snapshot{}
			}
			jm.Snapshot.Merge(s)
		}
		jm.Programs += cl.end - cl.start
		jm.Done += cursor - cl.start
		jm.Runs += runs
		jm.Findings += len(known)
		jm.Cells = append(jm.Cells, cm)
	}
	jm.Deduped = dedupe.Classes()
	return jm
}

// occupancyLes are the histogram bucket upper bounds the Prometheus
// exposition uses for the per-stage occupancy distributions.
var occupancyLes = []int{0, 1, 2, 4, 8, 16, 32, 64, 128}

// PromText renders the fleet metrics in Prometheus text-exposition
// format — the GET /metrics scrape payload, built with no external
// dependencies. Per-job CPI-stack component series sum exactly to the
// job's attributed-cycle total (profile.CPIStack keeps that invariant
// under merge); the scrape golden test asserts both the stability of
// the series names and that sum.
func (c *Coordinator) PromText() []byte {
	return renderProm(c.Metrics())
}

func renderProm(m *FleetMetrics) []byte {
	p := metrics.NewProm()
	if m.Build != nil {
		p.Gauge("pok_build_info", "Build provenance of the coordinator.",
			[][2]string{{"git_sha", m.Build.GitSHA}, {"go_version", m.Build.GoVersion}}, 1)
	}
	p.Gauge("pok_queue_depth", "Pending cells in the lease queue.", nil,
		float64(m.QueueDepth))
	p.Gauge("pok_draining", "1 while the coordinator is draining.", nil,
		boolGauge(m.Draining))
	p.Gauge("pok_journal_error", "1 if a journal append has failed.", nil,
		boolGauge(m.JournalError != ""))
	p.Gauge("pok_workers", "Workers ever seen by this coordinator.", nil,
		float64(len(m.Workers)))

	for i := range m.Jobs {
		j := &m.Jobs[i]
		jl := [][2]string{{"job", j.ID}}
		p.Gauge("pok_job_programs", "Programs in the job's range.", jl, float64(j.Programs))
		p.Gauge("pok_job_programs_done", "Programs covered so far.", jl, float64(j.Done))
		s := j.Snapshot
		if s == nil {
			continue
		}
		p.Counter("pok_job_runs_total", "Detection runs executed.", jl, float64(s.Runs))
		p.Counter("pok_job_findings_total", "Findings recorded.", jl, float64(s.Findings))
		p.Counter("pok_job_replays_total", "Scheduler replays observed.", jl, float64(s.Replays))
		p.Counter("pok_job_squashes_total", "Pipeline squashes observed.", jl, float64(s.Squashes()))
		cfgs := make([]string, 0, len(s.Stacks))
		for cfg := range s.Stacks {
			cfgs = append(cfgs, cfg)
		}
		sort.Strings(cfgs)
		for _, cfg := range cfgs {
			st := s.Stacks[cfg]
			cl := [][2]string{{"job", j.ID}, {"config", cfg}}
			p.Counter("pok_job_cycles_total",
				"Attributed simulated cycles per config (== sum of the CPI-stack components).",
				cl, float64(st.Cycles))
			p.Counter("pok_job_insts_total",
				"Committed instructions per config.", cl, float64(st.Insts))
			for comp := 0; comp < profile.NumComponents; comp++ {
				p.Counter("pok_job_cpistack_cycles_total",
					"CPI-stack component cycles per config; components sum to pok_job_cycles_total.",
					[][2]string{{"job", j.ID}, {"config", cfg},
						{"component", profile.Component(comp).String()}},
					float64(st.Comp[comp]))
			}
		}
		if t := s.Telemetry; t != nil {
			for _, oc := range []struct {
				stage string
				h     *stats.Histogram
			}{
				{"window", t.WindowOcc},
				{"lsq", t.LSQOcc},
				{"issue", t.IssueUse},
			} {
				p.Histogram("pok_job_occupancy",
					"Per-cycle pipeline occupancy by stage.",
					[][2]string{{"job", j.ID}, {"stage", oc.stage}}, oc.h, occupancyLes)
			}
		}
	}

	for i := range m.Workers {
		w := &m.Workers[i]
		wl := [][2]string{{"worker", w.Name}}
		p.Counter("pok_worker_programs_total", "Programs completed by worker.", wl, float64(w.Programs))
		p.Counter("pok_worker_insts_total", "Committed instructions simulated by worker.", wl, float64(w.Insts))
		p.Counter("pok_worker_cycles_total", "Simulated cycles executed by worker.", wl, float64(w.Cycles))
		p.Counter("pok_worker_wall_seconds_total", "Wall seconds spent in detection runs.", wl, float64(w.WallNanos)/1e9)
		p.Gauge("pok_worker_minst_per_sec", "Blended throughput: committed Minst per wall second.", wl, w.MinstPerSec)
		p.Counter("pok_worker_findings_total", "Findings reported by worker.", wl, float64(w.Findings))
		var st WorkerStats
		if w.Stats != nil {
			st = *w.Stats
		}
		p.Counter("pok_worker_rpc_retries_total", "Coordinator RPC retries (worker self-reported).", wl, float64(st.RPCRetries))
		p.Counter("pok_worker_transport_errors_total", "Coordinator RPC transport errors (worker self-reported).", wl, float64(st.TransportErrors))
		p.Counter("pok_worker_heartbeat_errors_total", "Failed heartbeats (worker self-reported).", wl, float64(st.HeartbeatErrors))
	}
	return p.Render()
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
