package serve

import (
	"sort"

	"pok/internal/metrics"
	"pok/internal/profile"
	"pok/internal/stats"
)

// FleetMetrics is the coordinator's aggregated observability snapshot,
// served as JSON at /api/metrics and rendered as Prometheus text at
// /metrics. Cardinality is bounded by construction: jobs × configs ×
// NumComponents CPI series, one row per worker, and a fixed-capacity
// sample ring.
type FleetMetrics struct {
	Build         *metrics.BuildInfo `json:"build,omitempty"`
	QueueDepth    int                `json:"queue_depth"`
	Draining      bool               `json:"draining,omitempty"`
	JournalError  string             `json:"journal_error,omitempty"`
	EventsDropped uint64             `json:"events_dropped,omitempty"`
	Jobs          []JobMetrics       `json:"jobs,omitempty"`
	Workers       []WorkerMetrics    `json:"workers,omitempty"`
	// Samples is the bounded time-series ring (oldest first): one entry
	// per snapshot-carrying progress event. The dashboard derives the
	// per-worker throughput sparklines and the wavefront heat-strip
	// from consecutive deltas.
	Samples []MetricsSample `json:"samples,omitempty"`
}

// JobMetrics is one job's merged telemetry: the fold of every cell's
// snapshot (committed base + live lease + final outcomes).
type JobMetrics struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	State    string `json:"state"`
	Programs int    `json:"programs"`
	Done     int    `json:"done"`
	// Snapshot is the job-wide merged accumulator; its per-config CPI
	// stacks keep the sum-equals-cycles invariant under merge.
	Snapshot *metrics.Snapshot `json:"snapshot,omitempty"`
	Cells    []CellMetrics     `json:"cells,omitempty"`
}

// CellMetrics is one cell's compact telemetry row (the heat-strip and
// per-cell drill-down; full stacks live on the job snapshot).
type CellMetrics struct {
	ID        int    `json:"id"`
	Start     int    `json:"start"`
	End       int    `json:"end"`
	Cursor    int    `json:"cursor"`
	State     string `json:"state"`
	Worker    string `json:"worker,omitempty"`
	Programs  int    `json:"programs"`
	Runs      int    `json:"runs"`
	Findings  int    `json:"findings"`
	Insts     uint64 `json:"insts,omitempty"`
	Cycles    int64  `json:"cycles,omitempty"`
	WallNanos int64  `json:"wall_nanos,omitempty"`
}

// WorkerMetrics is one worker's cumulative throughput and RPC health.
// LastSeenMillis mirrors WorkerStatus: a stable heartbeat timestamp
// rather than a render-time delta, so the payload — and its ETag —
// only changes when fleet state does.
type WorkerMetrics struct {
	Name            string  `json:"name"`
	LastSeenMillis  int64   `json:"last_seen_ms"`
	Cells           int     `json:"cells"`
	Programs        int     `json:"programs"`
	Findings        int     `json:"findings"`
	Insts           uint64  `json:"insts,omitempty"`
	Cycles          int64   `json:"cycles,omitempty"`
	WallNanos       int64   `json:"wall_nanos,omitempty"`
	MinstPerSec     float64 `json:"minst_per_sec,omitempty"`
	RPCRetries      int64   `json:"rpc_retries,omitempty"`
	TransportErrors int64   `json:"transport_errors,omitempty"`
	HeartbeatErrors int64   `json:"heartbeat_errors,omitempty"`
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

// Metrics assembles the fleet-wide observability snapshot.
func (c *Coordinator) Metrics() *FleetMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reap()
	m := &FleetMetrics{Draining: c.draining}
	if c.build != (metrics.BuildInfo{}) {
		b := c.build
		m.Build = &b
	}
	if c.journalErr != nil {
		m.JournalError = c.journalErr.Error()
	}
	m.QueueDepth = len(c.queue)

	for _, id := range c.order {
		j := c.jobs[id]
		jm := JobMetrics{ID: j.id, Kind: j.spec.Kind, State: j.state()}
		var acc *metrics.Snapshot
		for _, cl := range j.cellsByStart() {
			cursor := max(cl.cursor, cl.liveCursor)
			cm := CellMetrics{
				ID: cl.id, Start: cl.start, End: cl.end, Cursor: cursor,
				State: cl.state.String(), Worker: cl.worker,
			}
			if s := cellSnapLocked(cl); s != nil {
				cm.Programs, cm.Runs, cm.Findings = s.Programs, s.Runs, s.Findings
				cm.Insts, cm.Cycles, cm.WallNanos = s.Insts, s.Cycles, s.WallNanos
				if acc == nil {
					acc = &metrics.Snapshot{}
				}
				acc.Merge(s)
			}
			jm.Programs += cl.end - cl.start
			jm.Done += cursor - cl.start
			jm.Cells = append(jm.Cells, cm)
		}
		jm.Snapshot = acc
		if acc != nil {
			m.EventsDropped += acc.EventsDropped()
		}
		m.Jobs = append(m.Jobs, jm)
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
		}
		if w.wallNanos > 0 {
			wm.MinstPerSec = float64(w.insts) / (float64(w.wallNanos) / 1e9) / 1e6
		}
		if w.stats != nil {
			wm.RPCRetries = w.stats.RPCRetries
			wm.TransportErrors = w.stats.TransportErrors
			wm.HeartbeatErrors = w.stats.HeartbeatErrors
		}
		m.Workers = append(m.Workers, wm)
	}

	m.Samples = append([]MetricsSample(nil), c.samples...)
	return m
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
	p.Counter("pok_telemetry_dropped_events_total",
		"Telemetry events dropped from bounded recorder rings, fleet-wide.",
		nil, float64(m.EventsDropped))

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
		p.Counter("pok_worker_rpc_retries_total", "Coordinator RPC retries (worker self-reported).", wl, float64(w.RPCRetries))
		p.Counter("pok_worker_transport_errors_total", "Coordinator RPC transport errors (worker self-reported).", wl, float64(w.TransportErrors))
		p.Counter("pok_worker_heartbeat_errors_total", "Failed heartbeats (worker self-reported).", wl, float64(w.HeartbeatErrors))
	}
	return p.Render()
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
