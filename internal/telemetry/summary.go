package telemetry

import (
	"encoding/json"
	"fmt"
	"strings"

	"pok/internal/stats"
)

// Summary is the aggregated, machine-readable view of one run's
// telemetry: per-kind event counts, per-stage occupancy histograms,
// issue-slot utilisation and replay-cause attribution. It is folded
// into core.Result when a Recorder is attached and is what the CI
// smoke job and pok-bench -telemetry serialize.
type Summary struct {
	// CyclesSampled counts the per-cycle snapshots taken (== simulated
	// cycles when a Recorder observes the whole run).
	CyclesSampled uint64 `json:"cycles_sampled"`
	// Events maps event-kind name -> count over the whole run (counted
	// even when the ring has since overwritten the event itself).
	Events map[string]uint64 `json:"events"`

	// Per-stage occupancy distributions, one sample per cycle.
	WindowOcc *stats.Histogram `json:"window_occupancy"`
	IQOcc     *stats.Histogram `json:"iq_occupancy"`
	LSQOcc    *stats.Histogram `json:"lsq_occupancy"`
	// IssueUse is the distribution of issue slots consumed per cycle
	// (all slice schedulers combined); PortUse the same for D$ ports.
	IssueUse *stats.Histogram `json:"issue_slots_used"`
	PortUse  *stats.Histogram `json:"cache_ports_used"`

	// Replay attribution (EvReplay.Arg2).
	ReplayLoadLatency uint64 `json:"replay_load_latency"`
	ReplayPendingAddr uint64 `json:"replay_pending_addr"`

	// Branch resolution split (EvBranchResolve.Arg2).
	ResolvesEarly uint64 `json:"resolves_early"`
	ResolvesFull  uint64 `json:"resolves_full"`
}

// Merge folds o into s: counters sum, histograms merge bin-by-bin
// (stats.Histogram.Merge). This is the lightweight fold the fleet
// metrics pipeline ships instead of full JSONL event dumps; it is
// associative and commutative so cell snapshots can arrive in any
// order. A nil o is a no-op.
func (s *Summary) Merge(o *Summary) {
	if o == nil {
		return
	}
	s.CyclesSampled += o.CyclesSampled
	if len(o.Events) > 0 && s.Events == nil {
		s.Events = make(map[string]uint64, len(o.Events))
	}
	for k, n := range o.Events {
		s.Events[k] += n
	}
	mergeHist(&s.WindowOcc, o.WindowOcc)
	mergeHist(&s.IQOcc, o.IQOcc)
	mergeHist(&s.LSQOcc, o.LSQOcc)
	mergeHist(&s.IssueUse, o.IssueUse)
	mergeHist(&s.PortUse, o.PortUse)
	s.ReplayLoadLatency += o.ReplayLoadLatency
	s.ReplayPendingAddr += o.ReplayPendingAddr
	s.ResolvesEarly += o.ResolvesEarly
	s.ResolvesFull += o.ResolvesFull
}

func mergeHist(dst **stats.Histogram, src *stats.Histogram) {
	if src == nil {
		return
	}
	if *dst == nil {
		*dst = src.Clone()
		return
	}
	(*dst).Merge(src)
}

// Clone returns an independent deep copy (nil in, nil out).
func (s *Summary) Clone() *Summary {
	if s == nil {
		return nil
	}
	c := *s
	if s.Events != nil {
		c.Events = make(map[string]uint64, len(s.Events))
		for k, n := range s.Events {
			c.Events[k] = n
		}
	}
	c.WindowOcc = s.WindowOcc.Clone()
	c.IQOcc = s.IQOcc.Clone()
	c.LSQOcc = s.LSQOcc.Clone()
	c.IssueUse = s.IssueUse.Clone()
	c.PortUse = s.PortUse.Clone()
	return &c
}

// MarshalJSON is the plain struct encoding; declared so the summary
// shape is an explicit, stable contract for CI consumers.
func (s *Summary) MarshalJSON() ([]byte, error) {
	type alias Summary // drop methods to avoid recursion
	return json.Marshal((*alias)(s))
}

// Render formats the summary as the human-readable telemetry report
// pok-sim -telemetry prints.
func (s *Summary) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "telemetry: %d cycles sampled, %d events",
		s.CyclesSampled, s.totalEvents())
	b.WriteByte('\n')
	for i := 0; i < NumKinds; i++ {
		name := Kind(i).String()
		if n := s.Events[name]; n > 0 {
			fmt.Fprintf(&b, "  %-15s %d\n", name, n)
		}
	}
	if s.ReplayLoadLatency+s.ReplayPendingAddr > 0 {
		fmt.Fprintf(&b, "replay causes     load-latency=%d pending-addr=%d\n",
			s.ReplayLoadLatency, s.ReplayPendingAddr)
	}
	if s.ResolvesEarly+s.ResolvesFull > 0 {
		fmt.Fprintf(&b, "branch resolves   early=%d full=%d\n",
			s.ResolvesEarly, s.ResolvesFull)
	}
	for _, h := range []struct {
		label string
		hist  *stats.Histogram
	}{
		{"window occ", s.WindowOcc},
		{"iq occ", s.IQOcc},
		{"lsq occ", s.LSQOcc},
		{"issue slots", s.IssueUse},
		{"cache ports", s.PortUse},
	} {
		if h.hist != nil && h.hist.Total > 0 {
			b.WriteString(h.hist.Render(h.label))
		}
	}
	return b.String()
}

func (s *Summary) totalEvents() uint64 {
	var n uint64
	for _, c := range s.Events {
		n += c
	}
	return n
}
