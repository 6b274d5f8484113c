package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"pok/internal/metrics"
	"pok/internal/profile"
	"pok/internal/soak"
	"pok/internal/stats"
	"pok/internal/telemetry"
)

// testSnap builds a lease snapshot whose slice2 CPI stack keeps the
// component-sum-equals-cycles invariant.
func testSnap(programs, runs int, insts uint64, comps [profile.NumComponents]int64) *metrics.Snapshot {
	st := &profile.CPIStack{Config: "slice2", Insts: insts}
	for _, c := range comps {
		st.Cycles += c
	}
	st.Comp = comps
	return &metrics.Snapshot{
		Programs: programs, Runs: runs,
		Insts: insts, Cycles: st.Cycles, WallNanos: int64(time.Second),
		Replays: 2, RPCRetries: 1,
		Stacks: map[string]*profile.CPIStack{"slice2": st.Clone()},
	}
}

// promSeries parses an exposition payload into series -> value,
// skipping comments.
func promSeries(t *testing.T, text []byte) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestFleetMetricsAggregation scripts two workers over a two-cell job
// and asserts the whole observability pipeline: per-job merged
// snapshots, the sample ring, per-worker throughput rows, and the
// /metrics scrape whose CPI-stack component series sum exactly to the
// job's attributed-cycle total.
func TestFleetMetricsAggregation(t *testing.T) {
	c, _ := testCoordinator(time.Minute)
	id := soakJob(t, c, 4, 2)

	a1 := c.Lease("w1", "")
	a2 := c.Lease("w2", "")
	if a1 == nil || a2 == nil {
		t.Fatal("expected two leases")
	}

	s1 := testSnap(1, 1, 1000, [profile.NumComponents]int64{500, 100, 50, 25, 0, 0, 25, 0, 0})
	c.Heartbeat(Heartbeat{Lease: a1.Lease, Worker: "w1", Cursor: a1.Start + 1,
		Runs: 1, Snapshot: s1})
	// A keepalive heartbeat (no progress) must not grow the sample ring.
	c.Heartbeat(Heartbeat{Lease: a1.Lease, Worker: "w1", Cursor: a1.Start + 1,
		Runs: 1, Snapshot: s1})

	f1 := testSnap(2, 2, 2500, [profile.NumComponents]int64{1200, 200, 100, 50, 10, 0, 40, 0, 0})
	f2 := testSnap(2, 2, 3000, [profile.NumComponents]int64{1500, 300, 0, 0, 0, 0, 0, 100, 0})
	f2.Findings = 1 // mirrors the soak loop's snap.Findings = len(rep.Findings)
	if err := c.Complete(CellResult{Lease: a1.Lease, Worker: "w1", Cursor: a1.End,
		Runs: 2, Snapshot: f1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(CellResult{Lease: a2.Lease, Worker: "w2", Cursor: a2.End,
		Runs: 2, Findings: []soak.Finding{finding(a2.Start)}, Snapshot: f2}); err != nil {
		t.Fatal(err)
	}

	m := c.Metrics()
	if len(m.Jobs) != 1 || m.Jobs[0].ID != id {
		t.Fatalf("jobs = %+v, want just %s", m.Jobs, id)
	}
	job := m.Jobs[0]
	if job.State != "done" || job.Runs != 4 || job.Findings != 1 || len(job.Feed) != 1 ||
		len(job.Deduped) != 1 || job.Deduped[0].Count != 1 {
		t.Fatalf("job %s: state %q runs %d findings %d feed %d deduped %+v, want done/4/1/1/one class",
			id, job.State, job.Runs, job.Findings, len(job.Feed), job.Deduped)
	}
	// GET /api/jobs/{id} serves the same row.
	if one, err := c.Job(id); err != nil || !reflect.DeepEqual(*one, job) {
		t.Fatalf("Job(%s) = %+v, %v; want the fleet view's row %+v", id, one, err, job)
	}
	if _, err := c.Job("job-404"); err == nil {
		t.Fatal("Job found an unknown id")
	}
	snap := job.Snapshot
	if snap == nil {
		t.Fatal("job has no merged snapshot")
	}
	wantCycles := f1.Cycles + f2.Cycles
	if snap.Cycles != wantCycles || snap.Insts != 5500 || snap.Runs != 4 {
		t.Fatalf("job snapshot cycles=%d insts=%d runs=%d, want %d/5500/4",
			snap.Cycles, snap.Insts, snap.Runs, wantCycles)
	}
	st := snap.Stacks["slice2"]
	if st == nil || st.Sum() != st.Cycles || st.Cycles != wantCycles {
		t.Fatalf("merged stack %+v, want component sum == cycles == %d", st, wantCycles)
	}
	// One sample per progress event: heartbeat (dup suppressed) + the
	// two completes.
	if len(m.Samples) != 3 {
		t.Fatalf("sample ring has %d entries, want 3: %+v", len(m.Samples), m.Samples)
	}
	if m.Samples[0].Worker != "w1" || m.Samples[0].Insts != 1000 {
		t.Fatalf("first sample %+v, want w1 heartbeat insts=1000", m.Samples[0])
	}
	if len(m.Workers) != 2 {
		t.Fatalf("workers = %+v, want w1 and w2", m.Workers)
	}
	for _, w := range m.Workers {
		want := map[string]uint64{"w1": 2500, "w2": 3000}[w.Name]
		if w.Insts != want {
			t.Fatalf("worker %s insts=%d, want %d", w.Name, w.Insts, want)
		}
		if w.MinstPerSec <= 0 {
			t.Fatalf("worker %s has no throughput: %+v", w.Name, w)
		}
	}

	// The scrape: per-component series must sum to the cycles total.
	text := c.PromText()
	series := promSeries(t, text)
	var compSum float64
	for comp := 0; comp < profile.NumComponents; comp++ {
		key := fmt.Sprintf(`pok_job_cpistack_cycles_total{job="%s",config="slice2",component="%s"}`,
			id, profile.Component(comp).String())
		v, ok := series[key]
		if !ok {
			t.Fatalf("scrape is missing %s", key)
		}
		compSum += v
	}
	cyc := series[fmt.Sprintf(`pok_job_cycles_total{job="%s",config="slice2"}`, id)]
	if compSum != cyc || cyc != float64(wantCycles) {
		t.Fatalf("component sum %v != cycles total %v (want %d)", compSum, cyc, wantCycles)
	}
	for _, key := range []string{
		`pok_worker_insts_total{worker="w1"}`,
		`pok_worker_rpc_retries_total{worker="w1"}`,
		fmt.Sprintf(`pok_job_findings_total{job="%s"}`, id),
		"pok_queue_depth",
	} {
		if _, ok := series[key]; !ok {
			t.Fatalf("scrape is missing %s", key)
		}
	}
	if series[fmt.Sprintf(`pok_job_findings_total{job="%s"}`, id)] != 1 {
		t.Fatal("findings series != 1")
	}
	// Byte-stable for a fixed fleet state.
	if again := c.PromText(); !bytes.Equal(text, again) {
		t.Fatal("second scrape differs from first")
	}
}

// promGoldenFile pins the /metrics exposition of promFleet's state.
const promGoldenFile = "testdata/prom_golden.txt"

// promFleet drives a coordinator to a fixed state that reaches every
// /metrics series: a build stamp, two workers (w1 self-reports RPC
// stats), a soak job with occupancy telemetry, a finding and a tail
// stolen by w2, and a second job failed past its retry budget.
func promFleet(t *testing.T) *Coordinator {
	t.Helper()
	c, _ := testCoordinator(time.Minute)
	c.SetBuild(metrics.BuildInfo{GitSHA: "0123abc", GoVersion: "go1.test"})
	soakJob(t, c, 8, 8)

	a := c.Lease("w1", "")
	s1 := testSnap(2, 2, 1000, [profile.NumComponents]int64{500, 100, 50, 25, 0, 0, 25, 0, 0})
	occ := stats.NewHistogram(8)
	for _, v := range []int{0, 1, 3, 3, 7, 12} {
		occ.Add(v)
	}
	s1.Telemetry = &telemetry.Summary{
		Events:    map[string]uint64{telemetry.EvSquash.String(): 4},
		WindowOcc: occ, LSQOcc: occ.Clone(), IssueUse: occ.Clone(),
	}
	c.Heartbeat(Heartbeat{Lease: a.Lease, Worker: "w1", Cursor: 2, Runs: 2, Snapshot: s1,
		Stats: &WorkerStats{RPCRetries: 3, TransportErrors: 2, HeartbeatErrors: 1}})
	b := c.Lease("w2", "")
	if b == nil || b.Start != 5 || b.End != 8 {
		t.Fatalf("stolen lease = %+v, want [5,8)", b)
	}
	f1 := s1.Clone()
	f1.Programs, f1.Runs, f1.Findings, f1.Insts = 5, 5, 1, 2500
	if err := c.Complete(CellResult{Lease: a.Lease, Worker: "w1", Cursor: 5, Runs: 5,
		Findings: []soak.Finding{finding(4)}, Snapshot: f1}); err != nil {
		t.Fatal(err)
	}
	f2 := testSnap(3, 3, 3000, [profile.NumComponents]int64{1500, 300, 0, 0, 0, 0, 0, 100, 0})
	if err := c.Complete(CellResult{Lease: b.Lease, Worker: "w2", Cursor: 8, Runs: 3,
		Snapshot: f2}); err != nil {
		t.Fatal(err)
	}

	c.SetRetryLimit(0)
	soakJob(t, c, 2, 2)
	x := c.Lease("w2", "")
	if x == nil {
		t.Fatal("no lease on the second job")
	}
	c.Fail(x.Lease, "w2", "boom")
	return c
}

// TestPromTextGolden compares the /metrics scrape of a fixed fleet
// state byte for byte with testdata/prom_golden.txt, so a change to
// how the fleet view is assembled cannot move a series or a value.
func TestPromTextGolden(t *testing.T) {
	want, err := os.ReadFile(promGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if got := promFleet(t).PromText(); !bytes.Equal(got, want) {
		t.Fatalf("/metrics differs from %s; computed:\n%s", promGoldenFile, got)
	}
}

// TestMetricsJournalReplay: a journaled coordinator replayed from disk
// rebuilds the job snapshots AND the sample ring byte-identically (the
// worker table is ephemeral by design and excluded, as in dumpState).
func TestMetricsJournalReplay(t *testing.T) {
	dir := t.TempDir()
	c, _ := testCoordinator(time.Minute)
	journaled(t, c, dir)
	soakJob(t, c, 4, 2)

	a1 := c.Lease("w1", "")
	a2 := c.Lease("w2", "")
	s1 := testSnap(1, 1, 1000, [profile.NumComponents]int64{700, 100, 0, 0, 0, 0, 0, 0, 0})
	c.Heartbeat(Heartbeat{Lease: a1.Lease, Worker: "w1", Cursor: a1.Start + 1,
		Runs: 1, Snapshot: s1})
	f1 := testSnap(2, 2, 2000, [profile.NumComponents]int64{1400, 200, 0, 0, 0, 0, 0, 0, 0})
	if err := c.Complete(CellResult{Lease: a1.Lease, Worker: "w1", Cursor: a1.End,
		Runs: 2, Snapshot: f1}); err != nil {
		t.Fatal(err)
	}
	// Leave the second lease live mid-flight: its heartbeat snapshot
	// must survive the crash too.
	s2 := testSnap(1, 1, 500, [profile.NumComponents]int64{400, 0, 0, 0, 0, 0, 100, 0, 0})
	c.Heartbeat(Heartbeat{Lease: a2.Lease, Worker: "w2", Cursor: a2.Start + 1,
		Runs: 1, Snapshot: s2})

	dump := func(c *Coordinator) string {
		m := c.Metrics()
		blob, err := json.MarshalIndent(struct {
			Jobs    []JobMetrics
			Samples []MetricsSample
		}{m.Jobs, m.Samples}, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
	want := dump(c)

	rc, _ := testCoordinator(time.Minute)
	rj, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.AttachJournal(rj); err != nil {
		t.Fatal(err)
	}
	if got := dump(rc); got != want {
		t.Fatalf("replayed metrics differ:\n--- live ---\n%s\n--- replayed ---\n%s", want, got)
	}
}

// TestStatusAndMetricsETags: the fleet view's two renderings,
// /api/metrics and /metrics, answer 304 to a matching If-None-Match and invalidate the ETag when
// fleet state changes.
func TestStatusAndMetricsETags(t *testing.T) {
	c, _ := testCoordinator(time.Minute)
	soakJob(t, c, 4, 2)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	get := func(path, inm string) (*http.Response, string) {
		t.Helper()
		req, _ := http.NewRequest("GET", srv.URL+path, nil)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp, resp.Header.Get("ETag")
	}

	for _, path := range []string{"/api/metrics", "/metrics"} {
		resp, etag := get(path, "")
		if resp.StatusCode != 200 || etag == "" {
			t.Fatalf("GET %s: status %d etag %q, want 200 + etag", path, resp.StatusCode, etag)
		}
		if resp, _ := get(path, etag); resp.StatusCode != http.StatusNotModified {
			t.Fatalf("GET %s with matching If-None-Match: %d, want 304", path, resp.StatusCode)
		}
		// State change invalidates the tag.
		a := c.Lease("w", "")
		if a == nil {
			t.Fatal("no lease")
		}
		resp2, etag2 := get(path, etag)
		if resp2.StatusCode != 200 || etag2 == etag {
			t.Fatalf("GET %s after state change: %d etag %q, want 200 + fresh etag",
				path, resp2.StatusCode, etag2)
		}
		c.Release(ReleaseRequest{Lease: a.Lease, Worker: "w", Cursor: a.Start})
	}
}
