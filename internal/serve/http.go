package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"time"

	"pok/internal/metrics"
	"pok/internal/soak"
)

// Assignment is one leased cell: everything a stateless worker needs
// to execute it — the job spec, the [Start, End) program range (soak)
// or benchmark (bench), and the lease TTL it must heartbeat within.
type Assignment struct {
	Lease     string        `json:"lease"`
	Job       string        `json:"job"`
	Cell      int           `json:"cell"`
	Kind      string        `json:"kind"`
	Start     int           `json:"start"`
	End       int           `json:"end"`
	Benchmark string        `json:"benchmark,omitempty"`
	LeaseTTL  time.Duration `json:"lease_ttl"`
	Spec      JobSpec       `json:"spec"`
	// Resume, when non-nil, is the cell's instruction-granular cursor
	// from a previous lease that was reaped or released mid-program:
	// the worker starts program Resume.Program at cell-matrix position
	// Resume.Cell from the architectural snapshot Resume.Snap instead
	// of losing the whole program's work. Only present when
	// Resume.Program == Start.
	Resume *ResumeCursor `json:"resume,omitempty"`
}

// ResumeCursor extends the program-granular cursor to instruction
// granularity (soak jobs with SoakSpec.InstCkpt set): the lease was
// inside cell-matrix position Cell of program Program, whose latest
// drained architectural snapshot is Snap (ckpt.Encode bytes; base64 in
// JSON). Heartbeats carry it up, requeued assignments carry it back
// down. The worker holds drained snapshots unencoded and builds Snap
// only when a heartbeat or release sends the cursor. The lease's committed runs and findings already cover the
// matrix cells before Cell, so a resumed lease always skips them; it
// continues cell Cell from Snap when Snap decodes and reruns that cell
// from its start otherwise. The coordinator journal keeps (Program,
// Cell) but not Snap — snapshot blobs would dominate it — so after a
// coordinator restart the cursor comes back without its blob.
type ResumeCursor struct {
	Program int    `json:"program"`
	Cell    int    `json:"cell"`
	Snap    []byte `json:"snap,omitempty"`
}

// LeaseRequest asks for work. Nonce, when non-empty, identifies this
// logical lease attempt: retrying (or a lossy transport duplicating)
// the same worker+nonce returns the original assignment instead of
// leasing a second cell that could only expire into a retry strike.
type LeaseRequest struct {
	Worker string `json:"worker"`
	Nonce  string `json:"nonce,omitempty"`
}

// Heartbeat is a worker's progress report: Cursor is the next program
// index not yet run, Findings/Runs are cumulative for this lease.
// Stats, when present, is the worker's self-reported RPC accounting,
// surfaced on /api/metrics.
type Heartbeat struct {
	Lease    string         `json:"lease"`
	Worker   string         `json:"worker"`
	Cursor   int            `json:"cursor"`
	Runs     int            `json:"runs"`
	Findings []soak.Finding `json:"findings,omitempty"`
	Stats    *WorkerStats   `json:"stats,omitempty"`
	// Snapshot piggybacks the lease's cumulative metrics accumulator
	// (CPI stacks, occupancy histograms, throughput) on the heartbeat —
	// the fleet telemetry transport; nil when metrics are off.
	Snapshot *metrics.Snapshot `json:"snapshot,omitempty"`
	// Resume, when non-nil, is the worker's instruction-granular
	// position inside program Cursor (soak jobs with InstCkpt): if this
	// lease is later reaped, the next lease resumes mid-program from it.
	Resume *ResumeCursor `json:"resume,omitempty"`
}

// WorkerStats is a worker's self-reported robustness accounting: how
// often its coordinator RPCs failed and retried, and how its cells
// ended. Counters are cumulative for the worker process.
type WorkerStats struct {
	RPCRetries      int64 `json:"rpc_retries,omitempty"`
	TransportErrors int64 `json:"transport_errors,omitempty"`
	StatusErrors    int64 `json:"status_errors,omitempty"`
	HeartbeatErrors int64 `json:"heartbeat_errors,omitempty"`
	CellsAbandoned  int64 `json:"cells_abandoned,omitempty"`
	CellsReleased   int64 `json:"cells_released,omitempty"`
	// SoakCkptErrs counts campaign-checkpoint/cursor writes that failed
	// inside this worker's soak runs (soak.Report.CkptErrs, summed).
	SoakCkptErrs int64 `json:"soak_ckpt_errs,omitempty"`
}

// HeartbeatReply acknowledges a heartbeat. End is the cell's current
// exclusive end bound (it shrinks when the tail is stolen); Cancel
// tells the worker its lease is gone and the cell must be abandoned.
type HeartbeatReply struct {
	End    int  `json:"end"`
	Cancel bool `json:"cancel,omitempty"`
}

// CellResult completes a lease: Findings/Runs cover exactly the
// programs this lease ran ([lease start, Cursor)), Rows carries bench
// results.
type CellResult struct {
	Lease    string         `json:"lease"`
	Worker   string         `json:"worker"`
	Cursor   int            `json:"cursor"`
	Runs     int            `json:"runs"`
	Findings []soak.Finding `json:"findings,omitempty"`
	Rows     []BenchRow     `json:"rows,omitempty"`
	// Snapshot is the lease's final metrics accumulator (nil when
	// metrics are off).
	Snapshot *metrics.Snapshot `json:"snapshot,omitempty"`
}

// ReleaseRequest hands a lease back cleanly: a draining worker ran
// through its current program, and its partial results up to Cursor
// fold into the cell before it requeues — without a retry strike.
type ReleaseRequest struct {
	Lease    string         `json:"lease"`
	Worker   string         `json:"worker"`
	Cursor   int            `json:"cursor"`
	Runs     int            `json:"runs"`
	Findings []soak.Finding `json:"findings,omitempty"`
	// Snapshot is the lease's metrics accumulator at release time (nil
	// when metrics are off); it folds into the cell's committed base.
	Snapshot *metrics.Snapshot `json:"snapshot,omitempty"`
	// Resume carries the instruction-granular position when the worker
	// drained mid-program (soak jobs with InstCkpt); the next lease of
	// this cell continues from it.
	Resume *ResumeCursor `json:"resume,omitempty"`
}

// FailRequest reports a hard worker-side error on a leased cell.
type FailRequest struct {
	Lease  string `json:"lease"`
	Worker string `json:"worker"`
	Error  string `json:"error"`
}

// maxRequestBody caps every /api/* JSON request body. Heartbeats and
// completions carry findings lists, which stay far below this even on
// pathological campaigns; anything larger is a client bug or abuse.
const maxRequestBody = 32 << 20

// Handler returns the coordinator's HTTP API plus the dashboard:
//
//	POST /api/jobs            submit a JobSpec           -> {"id": ...}
//	GET  /api/jobs/{id}       one job of the fleet view  -> JobMetrics
//	GET  /api/jobs/{id}/result merged result (when done) -> JobResult
//	POST /api/lease           LeaseRequest               -> Assignment | 204
//	POST /api/heartbeat       Heartbeat                  -> HeartbeatReply
//	POST /api/complete        CellResult                 -> {"ok": true}
//	POST /api/release         ReleaseRequest             -> {"ok": true}
//	POST /api/fail            FailRequest                -> {"ok": true}
//	GET  /api/metrics         fleet view (JSON)          -> FleetMetrics
//	GET  /metrics             Prometheus text exposition of the fleet view
//	GET  /                    self-contained HTML dashboard
//
// /api/metrics and /metrics are served with an ETag and honour
// If-None-Match (304), so an idle fleet's dashboard refresh loop stops
// re-downloading unchanged JSON.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /api/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec JobSpec
		if !readJSON(w, r, &spec) {
			return
		}
		id, err := c.Submit(spec)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, map[string]string{"id": id})
	})

	mux.HandleFunc("GET /api/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		jm, err := c.Job(r.PathValue("id"))
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, jm)
	})

	mux.HandleFunc("GET /api/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		res, err := c.Result(r.PathValue("id"))
		if err != nil {
			httpError(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, res)
	})

	mux.HandleFunc("POST /api/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !readJSON(w, r, &req) {
			return
		}
		a := c.Lease(req.Worker, req.Nonce)
		if a == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, a)
	})

	mux.HandleFunc("POST /api/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var hb Heartbeat
		if !readJSON(w, r, &hb) {
			return
		}
		writeJSON(w, c.Heartbeat(hb))
	})

	mux.HandleFunc("POST /api/complete", func(w http.ResponseWriter, r *http.Request) {
		var res CellResult
		if !readJSON(w, r, &res) {
			return
		}
		if err := c.Complete(res); err != nil {
			httpError(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, map[string]bool{"ok": true})
	})

	mux.HandleFunc("POST /api/release", func(w http.ResponseWriter, r *http.Request) {
		var req ReleaseRequest
		if !readJSON(w, r, &req) {
			return
		}
		c.Release(req)
		writeJSON(w, map[string]bool{"ok": true})
	})

	mux.HandleFunc("POST /api/fail", func(w http.ResponseWriter, r *http.Request) {
		var req FailRequest
		if !readJSON(w, r, &req) {
			return
		}
		c.Fail(req.Lease, req.Worker, req.Error)
		writeJSON(w, map[string]bool{"ok": true})
	})

	mux.HandleFunc("GET /api/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSONETag(w, r, c.Metrics())
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		serveWithETag(w, r, "text/plain; version=0.0.4; charset=utf-8", c.PromText())
	})

	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, dashboardHTML)
	})

	return mux
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", mbe.Limit))
			return false
		}
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeJSONETag serializes v exactly like writeJSON but stamps an ETag
// over the body and answers If-None-Match with 304 — the polling-path
// variant for snapshot endpoints.
func writeJSONETag(w http.ResponseWriter, r *http.Request, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	serveWithETag(w, r, "application/json", append(body, '\n'))
}

// serveWithETag writes body with a content-hash ETag, short-circuiting
// to 304 Not Modified when the client already holds the same bytes.
func serveWithETag(w http.ResponseWriter, r *http.Request, contentType string, body []byte) {
	h := fnv.New64a()
	_, _ = h.Write(body)
	etag := fmt.Sprintf(`"%x"`, h.Sum64())
	w.Header().Set("ETag", etag)
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", contentType)
	_, _ = w.Write(body)
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
