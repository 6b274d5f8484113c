package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pok/internal/ckpt"
	"pok/internal/core"
	"pok/internal/emu"
	"pok/internal/gen"
	"pok/internal/profile"
	"pok/internal/soak"
	"pok/internal/telemetry"
	"pok/internal/workload"
)

// countEncodes swaps the worker's encode seam for a counting wrapper
// until the test ends.
func countEncodes(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	orig := encodeSnapshot
	encodeSnapshot = func(s *ckpt.Snapshot) []byte {
		n.Add(1)
		return orig(s)
	}
	t.Cleanup(func() { encodeSnapshot = orig })
	return &n
}

// soloReport runs spec in a single process and returns its report as
// JSON and the number of mid-program snapshots the run drained.
func soloReport(t *testing.T, spec *SoakSpec) ([]byte, int) {
	t.Helper()
	opts := spec.Options(t.TempDir())
	snaps := 0
	opts.CellCursor = func(int, int, *soak.Report, *ckpt.Snapshot) bool {
		snaps++
		return false
	}
	rep, err := soak.Run(opts, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b, snaps
}

// fleetReport returns job id's merged report as JSON.
func fleetReport(t *testing.T, c *Coordinator, id string) []byte {
	t.Helper()
	res, err := c.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res.Soak)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWorkerEncodesOnlyWhatItSends: a worker on a checkpointed cell
// whose lease TTL is far longer than the run sends no heartbeat while a
// program is in flight, so no drain's snapshot is ever due: it captures
// and encodes none of them, and its report still equals the
// single-process run, which captures every one.
func TestWorkerEncodesOnlyWhatItSends(t *testing.T) {
	spec := JobSpec{Kind: "soak", Soak: &SoakSpec{
		BaseSeed: 41, Programs: 2,
		Configs: []string{"slice2", "slice4"}, Schedulers: []string{"event"},
		NoReduce: true, Gen: gen.Options{Fragments: 6, LoopIters: 2, MaxInsts: 2000},
		InstCkpt: 30, CellPrograms: 2,
	}}
	solo, snaps := soloReport(t, spec.Soak)
	if snaps == 0 {
		t.Fatal("the campaign drained no mid-program snapshot")
	}
	encodes := countEncodes(t)

	c := NewCoordinator(time.Minute)
	id, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	w := &Worker{Client: NewClient(srv.URL), Name: "w", OutDir: t.TempDir(), MaxCells: 1}
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := w.captures.Load(); n != 0 {
		t.Errorf("worker captured %d of %d snapshots, none of which a keepalive needed", n, snaps)
	}
	if n := encodes.Load(); n != 0 {
		t.Errorf("worker encoded %d of %d snapshots, none of which it sent", n, snaps)
	}
	if fleet := fleetReport(t, c, id); !bytes.Equal(solo, fleet) {
		t.Fatalf("fleet report differs from the single-process run\nsolo:  %s\nfleet: %s", solo, fleet)
	}
}

// partition is a worker transport that keeps every resume cursor a
// successful heartbeat carried, and cuts the worker off for good (410
// on every later call) right after the first one: the coordinator is
// left holding exactly that mid-program cursor, as if the worker died.
type partition struct {
	next http.RoundTripper

	mu      sync.Mutex
	cut     bool
	carried []*ResumeCursor
}

func (p *partition) RoundTrip(req *http.Request) (*http.Response, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cut {
		return &http.Response{StatusCode: http.StatusGone, Header: http.Header{},
			Body: io.NopCloser(strings.NewReader("{}")), Request: req}, nil
	}
	var body []byte
	if req.Body != nil {
		var err error
		if body, err = io.ReadAll(req.Body); err != nil {
			return nil, err
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	resp, err := p.next.RoundTrip(req)
	if err != nil || resp.StatusCode != http.StatusOK || path.Base(req.URL.Path) != "heartbeat" {
		return resp, err
	}
	var hb Heartbeat
	if json.Unmarshal(body, &hb) == nil && hb.Resume != nil {
		p.carried = append(p.carried, hb.Resume)
		p.cut = true
	}
	return resp, nil
}

// TestKeepaliveCarriesDecodableResume: with a lease TTL short enough
// that the keepalive fires while a program is in flight, the keepalive
// carries the held snapshot, encoded on send. The bytes decode, and a
// cell requeued from that cursor after the worker is cut off finishes
// equal to the single-process run.
func TestKeepaliveCarriesDecodableResume(t *testing.T) {
	spec := JobSpec{Kind: "soak", Soak: &SoakSpec{
		BaseSeed: 43, Programs: 2, NoReduce: true, InstCkpt: 30, CellPrograms: 2,
	}}
	solo, _ := soloReport(t, spec.Soak)
	encodes := countEncodes(t)

	const ttl = 60 * time.Millisecond // keepalive every 20ms
	c, now := testCoordinator(ttl)
	id, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	cut := &partition{next: http.DefaultTransport}
	first := NewClient(srv.URL)
	first.HTTP = &http.Client{Transport: cut, Timeout: 30 * time.Second}
	w1 := &Worker{Client: first, Name: "first", OutDir: t.TempDir(), MaxCells: 1}
	_ = w1.Run(context.Background()) // cut off: it gives the cell up
	if len(cut.carried) != 1 {
		t.Fatalf("no keepalive carried a resume cursor before the cell ended (%d encodes)",
			encodes.Load())
	}
	if n := encodes.Load(); n == 0 {
		t.Fatal("a resume cursor was sent without an encode")
	}
	r := cut.carried[0]
	if _, err := ckpt.Decode(r.Snap); err != nil {
		t.Fatalf("carried cursor p%d cell %d does not decode: %v", r.Program, r.Cell, err)
	}

	// The lease expires and the next worker resumes from the cursor.
	c.mu.Lock()
	*now = now.Add(2 * ttl)
	c.mu.Unlock()
	var log bytes.Buffer
	w2 := &Worker{Client: NewClient(srv.URL), Name: "second", OutDir: t.TempDir(),
		MaxCells: 1, Log: &log}
	if err := w2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "mid-matrix") {
		t.Fatalf("requeued cell did not resume from the carried snapshot:\n%s", log.String())
	}
	if fleet := fleetReport(t, c, id); !bytes.Equal(solo, fleet) {
		t.Fatalf("fleet report differs from the single-process run\nsolo:  %s\nfleet: %s", solo, fleet)
	}
}

// TestKeepaliveCursorFresh: with a 60 ms lease TTL the worker captures
// a snapshot only when its freshest position is older than half the
// 20 ms keepalive interval. Every keepalive then carries a position no
// older than that plus the time since a drain last found the position
// fresh, every resume cursor it carries decodes, and the report equals
// the single-process run.
func TestKeepaliveCursorFresh(t *testing.T) {
	spec := JobSpec{Kind: "soak", Soak: &SoakSpec{
		BaseSeed: 47, Programs: 2, NoReduce: true, InstCkpt: 30, CellPrograms: 2,
	}}
	solo, snaps := soloReport(t, spec.Soak)

	const ttl = 60 * time.Millisecond
	maxAge := keepaliveInterval(ttl) / 2
	var mu sync.Mutex
	var sent []Heartbeat
	var ages []cursorAge
	orig := keepaliveSent
	keepaliveSent = func(hb Heartbeat, age cursorAge) {
		mu.Lock()
		sent = append(sent, hb)
		ages = append(ages, age)
		mu.Unlock()
	}
	t.Cleanup(func() { keepaliveSent = orig })

	c, _ := testCoordinator(ttl)
	id, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	w := &Worker{Client: NewClient(srv.URL), Name: "w", OutDir: t.TempDir(), MaxCells: 1}
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	carried := 0
	for i, hb := range sent {
		if a := ages[i]; a.Age > maxAge+a.SinceFresh {
			t.Errorf("keepalive %d carries a position %v old, found fresh %v ago (bound %v plus that)",
				i, a.Age, a.SinceFresh, maxAge)
		}
		if r := hb.Resume; r != nil {
			carried++
			if _, err := ckpt.Decode(r.Snap); err != nil {
				t.Errorf("keepalive %d: cursor p%d cell %d does not decode: %v", i, r.Program, r.Cell, err)
			}
		}
	}
	if carried == 0 {
		t.Fatalf("none of %d keepalives carried a resume cursor", len(sent))
	}
	if n := w.captures.Load(); n == 0 || n > int64(snaps) {
		t.Errorf("worker captured %d snapshots of the %d the run drained", n, snaps)
	}
	t.Logf("%d keepalives, %d with a cursor; %d of %d snapshots captured",
		len(sent), carried, w.captures.Load(), snaps)
	if fleet := fleetReport(t, c, id); !bytes.Equal(solo, fleet) {
		t.Fatalf("fleet report differs from the single-process run\nsolo:  %s\nfleet: %s", solo, fleet)
	}
}

// TestHeartbeatRacesSetMid publishes snapshots from one goroutine while
// two others build heartbeats (run it under -race). Every heartbeat
// must pair its cursor with the resume cursor published with it, a
// heartbeat encodes at most the one snapshot it sends, and repeated
// heartbeats of one snapshot encode it once.
func TestHeartbeatRacesSetMid(t *testing.T) {
	encodes := countEncodes(t)
	p := &cellProgress{}
	var stop atomic.Bool
	setter := make(chan struct{})
	published := make(chan struct{}) // closed after the first setMid
	go func() {
		defer close(setter)
		for i := 1; !stop.Load(); i++ {
			s := &ckpt.Snapshot{Meta: ckpt.Meta{Insts: uint64(i)}, Emu: &emu.State{}}
			p.setMid(i, nil, i, i%3, s)
			if i == 1 {
				close(published)
			}
		}
	}()
	<-published
	var carried atomic.Int64
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for k := 0; k < 200; k++ {
				hb, _ := p.heartbeat("lease", "w")
				if hb.Resume == nil {
					continue
				}
				carried.Add(1)
				r := hb.Resume
				s, err := ckpt.Decode(r.Snap)
				switch {
				case err != nil:
					t.Errorf("cursor p%d: %v", r.Program, err)
				case r.Program != hb.Cursor || r.Cell != r.Program%3 || s.Meta.Insts != uint64(r.Program):
					t.Errorf("heartbeat at cursor %d carries p%d cell %d with a snapshot at %d insts",
						hb.Cursor, r.Program, r.Cell, s.Meta.Insts)
				}
			}
		}()
	}
	readers.Wait()
	stop.Store(true)
	<-setter

	if n, c := encodes.Load(), carried.Load(); c == 0 || n > c {
		t.Errorf("%d encodes for %d heartbeats that carried a cursor", n, c)
	}
	before := encodes.Load()
	a, _ := p.heartbeat("lease", "w")
	b, _ := p.heartbeat("lease", "w")
	if a.Resume == nil || a.Resume != b.Resume {
		t.Fatalf("repeated heartbeats without progress built different cursors: %p %p", a.Resume, b.Resume)
	}
	if got := encodes.Load() - before; got > 1 {
		t.Errorf("two heartbeats of one snapshot encoded it %d times", got)
	}
}

// TestBenchStackPastRingBound: a bench cell long enough to overflow the
// standard recorder's event ring still publishes an exact CPI stack,
// equal to the one built from the run's complete event stream, and its
// recorder keeps no events at all.
func TestBenchStackPastRingBound(t *testing.T) {
	if testing.Short() {
		t.Skip("300k-instruction slice4 run")
	}
	const insts = 300_000
	var cellRec *telemetry.Recorder
	orig := benchRecorder
	benchRecorder = func(cfg *core.Config) *telemetry.Recorder {
		cellRec = orig(cfg)
		return cellRec
	}
	t.Cleanup(func() { benchRecorder = orig })
	_, snap, err := runBench("gzip", &BenchSpec{Configs: []string{"slice4"}, MaxInsts: insts}, true)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(cellRec.Events()); n != 0 || cellRec.Dropped() == 0 {
		t.Errorf("bench cell's recorder retains %d events (%d dropped), want none", n, cellRec.Dropped())
	}
	got := snap.Stacks["slice4"]
	if got == nil {
		t.Fatal("no slice4 stack in the snapshot")
	}
	if got.Insts != insts || got.Sum() != got.Cycles {
		t.Fatalf("stack counts %d of %d commits and %d of %d cycles",
			got.Insts, insts, got.Sum(), got.Cycles)
	}

	w := workload.MustGet("gzip")
	prog, err := w.Program(w.DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.BitSliced(4)
	rec := cfg.NewRecorder(math.MaxInt)
	cfg.Collector = rec
	r, err := core.RunWarm(prog, cfg, w.FastForward, insts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := profile.BuildCPIStack(rec.Events(), r.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	want.Benchmark, want.Config = "gzip", "slice4"
	if *got != *want {
		t.Fatalf("bench stack differs from the full-stream stack:\n%s\n%s",
			got.Render(), want.Render())
	}
}
