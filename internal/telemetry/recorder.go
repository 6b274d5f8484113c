package telemetry

import "pok/internal/stats"

// Recorder is the standard Collector: a bounded event ring plus
// per-cycle occupancy histograms and event-kind counters. The
// histograms and counters are preallocated; the ring grows on demand
// up to its bound, so a short run costs only the events it records and
// a run that fills the ring records without allocating.
type Recorder struct {
	ring   *Ring
	counts [numKinds]uint64

	cycles    uint64
	windowOcc *stats.Histogram
	iqOcc     *stats.Histogram
	lsqOcc    *stats.Histogram
	issueUse  *stats.Histogram
	portUse   *stats.Histogram

	replayLoadLat  uint64
	replayPendAddr uint64
	resolvesEarly  uint64
	resolvesFull   uint64
}

// RecorderConfig sizes a Recorder for one machine configuration.
type RecorderConfig struct {
	// RingCap bounds the event ring (DefaultRingCap when 0). It is a
	// limit, not a size: the ring grows toward it as events arrive.
	RingCap int
	// WindowSize / LSQSize / IssueSlots size the occupancy histograms;
	// small defaults are substituted when 0.
	WindowSize int
	LSQSize    int
	IssueSlots int
	CachePorts int
}

// NewRecorder builds a Recorder with the given sizing.
func NewRecorder(cfg RecorderConfig) *Recorder {
	if cfg.RingCap == 0 {
		cfg.RingCap = DefaultRingCap
	}
	if cfg.WindowSize == 0 {
		cfg.WindowSize = 64
	}
	if cfg.LSQSize == 0 {
		cfg.LSQSize = 32
	}
	if cfg.IssueSlots == 0 {
		cfg.IssueSlots = 16
	}
	if cfg.CachePorts == 0 {
		cfg.CachePorts = 2
	}
	return &Recorder{
		ring:      NewRing(cfg.RingCap),
		windowOcc: stats.NewHistogram(cfg.WindowSize + 1),
		iqOcc:     stats.NewHistogram(cfg.WindowSize + 1),
		lsqOcc:    stats.NewHistogram(cfg.LSQSize + 1),
		issueUse:  stats.NewHistogram(cfg.IssueSlots + 1),
		portUse:   stats.NewHistogram(cfg.CachePorts + 1),
	}
}

// Event implements Collector.
func (r *Recorder) Event(ev Event) {
	r.counts[ev.Kind]++
	switch ev.Kind {
	case EvReplay:
		if ev.Arg2 == ReplayPendingAddr {
			r.replayPendAddr++
		} else {
			r.replayLoadLat++
		}
	case EvBranchResolve:
		if ev.Arg2&ResolveEarly != 0 {
			r.resolvesEarly++
		} else {
			r.resolvesFull++
		}
	}
	r.ring.Record(ev)
}

// CycleSample implements Collector.
func (r *Recorder) CycleSample(cs CycleSample) {
	r.cycles++
	r.windowOcc.Add(cs.Window)
	r.iqOcc.Add(cs.IQ)
	r.lsqOcc.Add(cs.LSQ)
	r.issueUse.Add(cs.Issued)
	r.portUse.Add(cs.Ports)
}

// Events returns the live (non-overwritten) event stream in emission
// order.
func (r *Recorder) Events() []Event { return r.ring.Events() }

// Dropped reports how many events fell off the bounded ring. A dump
// written from a Recorder with Dropped() > 0 is lossy: counts in
// Summary are still exact, but event-stream consumers that need every
// edge (the CPI stack and the critical-path extractor) must refuse it.
func (r *Recorder) Dropped() uint64 { return r.ring.Dropped() }

// Summary implements Collector, aggregating everything recorded so far.
func (r *Recorder) Summary() *Summary {
	ev := make(map[string]uint64, numKinds)
	for i, c := range r.counts {
		if c > 0 {
			ev[Kind(i).String()] = c
		}
	}
	return &Summary{
		CyclesSampled:     r.cycles,
		Events:            ev,
		EventsDropped:     r.ring.Dropped(),
		WindowOcc:         r.windowOcc,
		IQOcc:             r.iqOcc,
		LSQOcc:            r.lsqOcc,
		IssueUse:          r.issueUse,
		PortUse:           r.portUse,
		ReplayLoadLatency: r.replayLoadLat,
		ReplayPendingAddr: r.replayPendAddr,
		ResolvesEarly:     r.resolvesEarly,
		ResolvesFull:      r.resolvesFull,
	}
}
