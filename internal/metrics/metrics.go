// Package metrics is the fleet observability layer: compact, mergeable
// telemetry snapshots that flow worker → coordinator → humans and
// machines.
//
// Workers fold each finished program's telemetry into a Snapshot
// (CPI-stack component cycles from internal/profile, per-stage
// occupancy histograms from internal/stats via the telemetry summary,
// throughput, replay/squash counts, RPC health counters) and piggyback
// it on the existing heartbeat/complete RPCs. Snapshots are
// deterministic except for the explicitly wall-clock fields (WallNanos
// and the derived Minst/s), and they never influence simulation
// results — the fleet equivalence tests prove findings stay
// byte-identical with metrics on or off.
//
// Merge is associative and commutative, so the coordinator can fold
// cell snapshots in any arrival order: fleet aggregates are
// reproducible regardless of worker interleaving. The coordinator
// exposes the aggregates as Prometheus text (prom.go), JSON
// (/api/metrics) and the live dashboard.
package metrics

import (
	"time"

	"pok/internal/profile"
	"pok/internal/telemetry"
)

// Snapshot is the unit of fleet telemetry: one worker's accumulated
// view of one lease (or one solo campaign). All fields are sums (or
// unions) so that snapshots from disjoint program ranges merge into
// the campaign total.
type Snapshot struct {
	// Programs / Runs / Findings count campaign progress: programs
	// completed, detection runs executed, findings recorded.
	Programs int `json:"programs,omitempty"`
	Runs     int `json:"runs,omitempty"`
	Findings int `json:"findings,omitempty"`

	// Insts / Cycles are the committed-instruction and simulated-cycle
	// totals over all successful detection runs; with WallNanos they
	// give the emulator+timing-core throughput (MinstPerSec).
	Insts  uint64 `json:"insts,omitempty"`
	Cycles int64  `json:"cycles,omitempty"`
	// WallNanos is wall time spent in detection runs. It is the one
	// intentionally nondeterministic field (throughput is meaningless
	// without it); everything else in a snapshot is reproducible.
	WallNanos int64 `json:"wall_nanos,omitempty"`

	// Replays counts scheduler replays over all runs.
	Replays uint64 `json:"replays,omitempty"`

	// RPCRetries / TransportErrors mirror the worker's client stats at
	// snapshot-send time (cumulative per worker, not per cell); the
	// coordinator reads them for per-worker RPC-health series.
	RPCRetries      int64 `json:"rpc_retries,omitempty"`
	TransportErrors int64 `json:"transport_errors,omitempty"`

	// Stacks holds one merged CPI stack per simulator config name —
	// the per-config cycle-accounting breakdown (profile.CPIStack.Comp
	// sums to Cycles by construction, and Merge preserves that).
	// Cardinality is bounded by the config whitelist (soak.ConfigByName).
	Stacks map[string]*profile.CPIStack `json:"stacks,omitempty"`

	// Telemetry is the merged lightweight summary fold (event counts,
	// occupancy histograms, replay attribution) over all runs.
	Telemetry *telemetry.Summary `json:"telemetry,omitempty"`
}

// AddRun folds one finished detection run into the snapshot: its
// committed insts/cycles/replays, its per-config CPI stack (nil when
// the run failed or telemetry was off) and its telemetry summary.
func (s *Snapshot) AddRun(config string, insts uint64, cycles int64,
	replays uint64, stack *profile.CPIStack, sum *telemetry.Summary,
	wall time.Duration) {
	s.Runs++
	s.Insts += insts
	s.Cycles += cycles
	s.Replays += replays
	s.WallNanos += int64(wall)
	if stack != nil {
		if s.Stacks == nil {
			s.Stacks = make(map[string]*profile.CPIStack)
		}
		if acc := s.Stacks[config]; acc != nil {
			acc.Merge(stack)
		} else {
			s.Stacks[config] = stack.Clone()
		}
	}
	if sum != nil {
		if s.Telemetry == nil {
			s.Telemetry = &telemetry.Summary{}
		}
		s.Telemetry.Merge(sum)
	}
}

// Merge folds o into s. Associative and commutative (over snapshots
// whose per-config stacks carry matching labels), so cell snapshots
// can be folded in any arrival order. A nil o is a no-op.
func (s *Snapshot) Merge(o *Snapshot) {
	if o == nil {
		return
	}
	s.Programs += o.Programs
	s.Runs += o.Runs
	s.Findings += o.Findings
	s.Insts += o.Insts
	s.Cycles += o.Cycles
	s.WallNanos += o.WallNanos
	s.Replays += o.Replays
	s.RPCRetries += o.RPCRetries
	s.TransportErrors += o.TransportErrors
	if len(o.Stacks) > 0 && s.Stacks == nil {
		s.Stacks = make(map[string]*profile.CPIStack, len(o.Stacks))
	}
	for cfg, st := range o.Stacks {
		if acc := s.Stacks[cfg]; acc != nil {
			acc.Merge(st)
		} else {
			s.Stacks[cfg] = st.Clone()
		}
	}
	if o.Telemetry != nil {
		if s.Telemetry == nil {
			s.Telemetry = &telemetry.Summary{}
		}
		s.Telemetry.Merge(o.Telemetry)
	}
}

// Clone returns an independent deep copy (nil in, nil out) — what
// workers hand to the heartbeat path so in-flight RPC encoding never
// races the soak loop's ongoing accumulation.
func (s *Snapshot) Clone() *Snapshot {
	if s == nil {
		return nil
	}
	c := *s
	if s.Stacks != nil {
		c.Stacks = make(map[string]*profile.CPIStack, len(s.Stacks))
		for cfg, st := range s.Stacks {
			c.Stacks[cfg] = st.Clone()
		}
	}
	c.Telemetry = s.Telemetry.Clone()
	return &c
}

// Squashes counts pipeline squash events over all runs.
func (s *Snapshot) Squashes() uint64 {
	if s.Telemetry == nil {
		return 0
	}
	return s.Telemetry.Events[telemetry.EvSquash.String()]
}

// EventsDropped counts telemetry events that fell off bounded recorder
// rings — surfaced as a red badge on the dashboard.
func (s *Snapshot) EventsDropped() uint64 {
	if s.Telemetry == nil {
		return 0
	}
	return s.Telemetry.EventsDropped
}

// MinstPerSec is the blended throughput: committed instructions per
// wall second, in millions (0 before any wall time accrues).
func (s *Snapshot) MinstPerSec() float64 {
	if s == nil || s.WallNanos <= 0 {
		return 0
	}
	return float64(s.Insts) / (float64(s.WallNanos) / 1e9) / 1e6
}
