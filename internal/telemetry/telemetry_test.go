package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

func TestKindNamesRoundTrip(t *testing.T) {
	for k := 0; k < NumKinds; k++ {
		name := Kind(k).String()
		if name == "" || name == "unknown" {
			t.Fatalf("kind %d has no wire name", k)
		}
		back, ok := KindFromString(name)
		if !ok || back != Kind(k) {
			t.Fatalf("kind %d (%s) does not round trip: got %d ok=%v", k, name, back, ok)
		}
	}
	if _, ok := KindFromString("no-such-kind"); ok {
		t.Fatal("unknown kind name accepted")
	}
}

func TestRingWrap(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Record(Event{Cycle: int64(i), Seq: uint64(i), Slice: -1})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", r.Dropped())
	}
	ev := r.Events()
	for i, e := range ev {
		if want := int64(6 + i); e.Cycle != want {
			t.Fatalf("event %d cycle = %d, want %d (oldest must be dropped first)", i, e.Cycle, want)
		}
	}
}

func TestRecorderAggregation(t *testing.T) {
	rec := NewRecorder(RecorderConfig{RingCap: 16})
	rec.Event(Event{Kind: EvReplay, Slice: 0, Arg2: ReplayPendingAddr})
	rec.Event(Event{Kind: EvReplay, Slice: 1, Arg2: ReplayLoadLatency})
	rec.Event(Event{Kind: EvBranchResolve, Slice: -1, Arg2: ResolveMispredict | ResolveEarly})
	rec.Event(Event{Kind: EvBranchResolve, Slice: -1})
	rec.CycleSample(CycleSample{Cycle: 0, Window: 3, IQ: 2, LSQ: 1, Issued: 4})
	rec.CycleSample(CycleSample{Cycle: 1, Window: 5, IQ: 1, LSQ: 0, Issued: 0})

	s := rec.Summary()
	if s.CyclesSampled != 2 {
		t.Fatalf("CyclesSampled = %d", s.CyclesSampled)
	}
	if s.ReplayPendingAddr != 1 || s.ReplayLoadLatency != 1 {
		t.Fatalf("replay causes = %d/%d", s.ReplayLoadLatency, s.ReplayPendingAddr)
	}
	if s.ResolvesEarly != 1 || s.ResolvesFull != 1 {
		t.Fatalf("resolves = %d/%d", s.ResolvesEarly, s.ResolvesFull)
	}
	if got := s.Events[EvReplay.String()]; got != 2 {
		t.Fatalf("replay count = %d", got)
	}
	if s.WindowOcc.Mean() != 4 {
		t.Fatalf("window mean = %v, want 4", s.WindowOcc.Mean())
	}
	if !strings.Contains(s.Render(), "replay causes") {
		t.Fatalf("Render missing replay causes:\n%s", s.Render())
	}
}

func TestJSONLOmitsEmptyFields(t *testing.T) {
	var b bytes.Buffer
	err := WriteJSONL(&b, []Event{
		{Cycle: 7, Seq: 3, Kind: EvCommit, Slice: -1},
		{Cycle: 9, Seq: 4, Kind: EvSliceIssue, Slice: 2, Arg2: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"cycle":7,"seq":3,"kind":"commit"}
{"cycle":9,"seq":4,"kind":"slice-issue","slice":2,"arg2":1}
`
	if b.String() != want {
		t.Fatalf("wire form:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestRenderTimeline(t *testing.T) {
	events := []Event{
		{Cycle: 0, Seq: 1, Kind: EvFetch, Slice: -1, Arg: 0x400010},
		{Cycle: 3, Seq: 1, Kind: EvDispatch, Slice: -1},
		{Cycle: 6, Seq: 1, Kind: EvSliceIssue, Slice: 0},
		{Cycle: 7, Seq: 1, Kind: EvSliceIssue, Slice: 1},
		{Cycle: 9, Seq: 1, Kind: EvCommit, Slice: -1},
		{Cycle: 1, Seq: 2, Kind: EvFetch, Slice: -1, Arg: 0x400014, Arg2: 1},
		{Cycle: 5, Seq: 2, Kind: EvSquash, Slice: -1},
	}
	out := RenderTimeline(events, TimelineOptions{})
	for _, want := range []string{"#1", "#2", "0x400010", "F", "D", "C", "S"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
	// Row for seq 1: F at col 0, D at 3, slices at 6/7, C at 9.
	var row1 string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "#1") {
			row1 = line
		}
	}
	if row1 == "" {
		t.Fatalf("no row for seq 1:\n%s", out)
	}
	cells := row1[len(row1)-10:]
	if cells != "F..D..01.C" {
		t.Fatalf("seq 1 lane = %q, want F..D..01.C\n%s", cells, out)
	}

	if got := RenderTimeline(nil, TimelineOptions{}); !strings.Contains(got, "no events") {
		t.Fatalf("empty dump render = %q", got)
	}
}

func TestTimelineSeqAndCycleClipping(t *testing.T) {
	events := []Event{
		{Cycle: 0, Seq: 1, Kind: EvFetch, Slice: -1},
		{Cycle: 1, Seq: 2, Kind: EvFetch, Slice: -1},
		{Cycle: 2, Seq: 3, Kind: EvFetch, Slice: -1},
	}
	out := RenderTimeline(events, TimelineOptions{FromSeq: 2, ToSeq: 2})
	if strings.Contains(out, "#1") || strings.Contains(out, "#3") {
		t.Fatalf("seq clipping leaked rows:\n%s", out)
	}
	if !strings.Contains(out, "#2") {
		t.Fatalf("seq clipping lost the selected row:\n%s", out)
	}
}
