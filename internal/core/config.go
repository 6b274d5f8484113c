// Package core implements the cycle-level out-of-order timing model: a
// 15-stage, 4-wide pipeline patterned on the paper's machine (Table 2,
// Figure 10) with a bit-sliced execution back end. Register operands are
// decomposed into 16- or 8-bit slices; wakeup, select and bypass operate
// at slice granularity, and the five partial-operand techniques the paper
// studies (partial operand bypassing, out-of-order slices, early branch
// resolution, early load-store disambiguation, partial tag matching) are
// independent configuration toggles so the Figure 11/12 stacks can be
// regenerated one optimization at a time.
//
// The model is execution-driven: the functional emulator in internal/emu
// supplies the committed instruction stream with operand values, and the
// timing model imposes fetch, dispatch, per-slice scheduling, memory and
// commit timing on it. Wrong-path instructions are not simulated; a
// misprediction blocks fetch until the branch resolves (see DESIGN.md).
package core

import (
	"fmt"
	"io"

	"pok/internal/bitslice"
	"pok/internal/cache"
	"pok/internal/telemetry"
)

// Config describes one machine configuration.
type Config struct {
	// Name labels the configuration in results.
	Name string

	// Slices is the number of datapath slices: 1 models a full-width
	// (non-pipelined, "ideal") execution stage, 2 and 4 model the
	// slice-by-2 and slice-by-4 pipelined execution stages of Figure 10.
	// 8 (4-bit slices) is supported as an extrapolation beyond the paper.
	Slices int

	// Partial-operand techniques (paper §§3, 5, 6). All false with
	// Slices>1 models "simple pipelining": register operands remain
	// atomic and dependents observe the full execution latency.
	PartialBypass   bool // slice-granular wakeup/bypass (TIDBITS/P4 style)
	OoOSlices       bool // slices without carry chains may execute out of order
	EarlyBranch     bool // beq/bne mispredicts resolve on the first differing slice
	EarlyLSDisambig bool // partial-address load/store disambiguation
	PartialTag      bool // partial tag match + MRU way prediction in the D$

	// UseDTLB adds a data TLB to the load path (64-entry fully
	// associative, 30-cycle walk). The paper's default assumes a
	// virtually-tagged L1 (or page coloring), so translation is off the
	// critical path; with a physically-tagged design the walk latency
	// joins the full-tag verification on a TLB miss.
	UseDTLB bool

	// WrongPath simulates instructions down mispredicted paths: on a
	// misprediction, fetch continues from a copy-on-write fork of the
	// emulator at the wrongly predicted PC. Wrong-path instructions
	// consume fetch/issue/FU bandwidth and pollute the caches, then are
	// squashed when the branch resolves — the second-order effect the
	// paper observes in Figure 11. Wrong-path branches follow the fork's
	// own outcomes (no nested misprediction) and do not train the
	// predictor.
	WrongPath bool

	// SumAddressed folds the base+offset addition into the D-cache array
	// decoder (Lynch et al., "Sum-Addressed Memory", cited by the paper as
	// orthogonal to partial tag matching): the speculative cache access
	// begins as soon as the base register's low slice is available,
	// skipping the explicit address-generation cycle for the index.
	SumAddressed bool

	// SerialMul models the bit-serial multiplier the paper cites (Ienne &
	// Viredaz): the product's low slices emerge before the full latency
	// elapses, so consumers chained on the low bits start earlier.
	SerialMul bool

	// NarrowWidth enables the paper's §6 extension (after Brooks &
	// Martonosi / Canal et al.): when a sliced result is narrow — its
	// upper slices are all zeros or all ones — consumers' upper-slice
	// dependences are satisfied as soon as the low slice is produced,
	// since the upper portion is a known constant.
	NarrowWidth bool

	// Machine widths (Table 2).
	FetchWidth  int
	IssueWidth  int // per slice scheduler
	CommitWidth int
	WindowSize  int // RUU entries
	LSQSize     int
	// IssueQueueSize bounds each slice scheduler's queue (Figure 7 draws
	// one issue queue per slice). Dispatch stalls when the target queues
	// are full; 0 means unbounded (limited only by the window).
	IssueQueueSize int

	// Function units (Table 2).
	IntALUs  int // per slice
	IntMul   int
	FPALUs   int
	FPMulDiv int

	// Latencies.
	FrontEndDepth int // cycles from fetch to earliest issue (Fig 10: 10 stages)
	RFStages      int // register-read stages between issue and execute
	IntMulLat     int
	IntDivLat     int
	FPALULat      int
	FPMulLat      int
	FPDivLat      int
	FPSqrtLat     int
	L1DLat        int // overrides the hierarchy's L1D hit latency
	CachePorts    int // D$ ports (loads issued per cycle)

	// LegacyScheduler selects the original O(window x slices) scan-based
	// scheduling/memory loops instead of the event-driven ready-queue
	// scheduler. The two are cycle-exact equivalents (enforced by
	// TestEventSchedulerMatchesLegacy); the flag exists as a one-release
	// escape hatch and to keep the differential test honest, and will be
	// removed once the event-driven path has baked. It also disables
	// quiet-cycle skipping, so the legacy run iterates every cycle the
	// event-driven run may jump over.
	LegacyScheduler bool

	// LegacyEmulator feeds the timing model from the original
	// switch-dispatch interpreter instead of the direct-threaded fast
	// path. Both produce bit-identical DynInst streams (enforced by the
	// internal/emu differential tests and TestEmulatorMatrixMatches), so
	// the flag exists purely as the reference half of that matrix.
	LegacyEmulator bool

	// UseBimodal replaces the gshare direction predictor with a bimodal
	// table of equal size (a predictor ablation; the paper uses gshare).
	UseBimodal bool
	// UseLocal replaces gshare with a two-level local-history predictor.
	UseLocal bool

	// Trace, when non-nil, receives a one-line record of every pipeline
	// event (fetch, dispatch, slice execute, memory issue, resolve,
	// commit) — the moral equivalent of sim-outorder's ptrace output.
	Trace io.Writer

	// Collector, when non-nil, receives the structured telemetry stream:
	// one fixed-size event per pipeline occurrence plus a per-cycle
	// occupancy sample (see internal/telemetry). Unlike Trace it is
	// machine-readable, allocation-free on the standard Recorder, and its
	// Summary is folded into Result.Telemetry when the run finishes. A
	// nil Collector costs one cached-boolean branch per emission site, so
	// the disabled path stays off the scheduler's hot path.
	Collector telemetry.Collector

	// Oracle, when non-nil, receives every committed instruction's
	// architectural record in commit order — the lockstep functional
	// oracle of internal/check diffs it against an independent emulator
	// and aborts the run at the first divergence. Nil costs one cached
	// boolean at commit. The record it receives is valid only during the
	// call (see CommitChecker).
	Oracle CommitChecker

	// Invariants, when non-nil, enables the per-cycle structural
	// invariant checker (ROB age ordering, occupancy bounds, serialized
	// slice issue, rename-map sanity, replay watchdog) and turns the
	// livelock guard into a configurable deadlock watchdog returning
	// ErrDeadlock with a pipeline dump.
	Invariants *InvariantConfig

	// Inject, when non-nil, perturbs speculative-timing decisions for
	// fault injection (see internal/check/inject). Injection never
	// corrupts architectural values, so a correct machine recovers to an
	// oracle-identical commit stream.
	Inject Injector
}

// NewRecorder builds a telemetry Recorder sized for this machine
// configuration (ring bound ringCap, 0 = default); assign it to
// Collector before NewSim.
func (c *Config) NewRecorder(ringCap int) *telemetry.Recorder {
	return telemetry.NewRecorder(telemetry.RecorderConfig{
		RingCap:    ringCap,
		WindowSize: c.WindowSize,
		LSQSize:    c.LSQSize,
		IssueSlots: c.IssueWidth * c.Slices,
		CachePorts: c.CachePorts,
	})
}

// BaseConfig returns the paper's Table 2 machine with a single-cycle
// (non-pipelined) execution stage — the "ideal"/best-case column of
// Figure 11.
func BaseConfig() Config {
	return Config{
		Name:          "base",
		Slices:        1,
		FetchWidth:    4,
		IssueWidth:    4,
		CommitWidth:   4,
		WindowSize:    64,
		LSQSize:       32,
		IntALUs:       4,
		IntMul:        1,
		FPALUs:        4,
		FPMulDiv:      1,
		FrontEndDepth: 10, // Fetch1..Iss of Figure 10
		RFStages:      2,
		IntMulLat:     3,
		IntDivLat:     20,
		FPALULat:      2,
		FPMulLat:      4,
		FPDivLat:      12,
		FPSqrtLat:     24,
		L1DLat:        1,
		CachePorts:    2,
	}
}

// SimplePipelined returns the naive pipelined-execution baseline: the
// execution stage is cut into nSlices stages but operands stay atomic, so
// dependent instructions observe the full end-to-end latency (the
// bottom bar of each Figure 11 stack).
func SimplePipelined(nSlices int) Config {
	c := BaseConfig()
	c.Name = fmt.Sprintf("simple-pipe-x%d", nSlices)
	c.Slices = nSlices
	if nSlices >= 4 {
		c.L1DLat = 2 // the paper grows the L1 latency in the slice-by-4 study
	}
	return c
}

// BitSliced returns the full bit-sliced microarchitecture with every
// partial-operand technique enabled (the top of each Figure 11 stack).
func BitSliced(nSlices int) Config {
	c := SimplePipelined(nSlices)
	c.Name = fmt.Sprintf("bit-slice-x%d", nSlices)
	c.PartialBypass = true
	c.OoOSlices = true
	c.EarlyBranch = true
	c.EarlyLSDisambig = true
	c.PartialTag = true
	return c
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch c.Slices {
	case 1, 2, 4, 8:
	default:
		return fmt.Errorf("core: unsupported slice count %d", c.Slices)
	}
	if err := bitslice.ValidateSliceCount(c.Slices); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if c.FetchWidth < 1 || c.IssueWidth < 1 || c.CommitWidth < 1 {
		return fmt.Errorf("core: widths must be positive")
	}
	if c.WindowSize < 1 || c.LSQSize < 1 {
		return fmt.Errorf("core: window/LSQ must be positive")
	}
	if c.IssueQueueSize < 0 {
		return fmt.Errorf("core: negative issue queue size %d", c.IssueQueueSize)
	}
	if c.IntALUs < 1 || c.CachePorts < 1 {
		return fmt.Errorf("core: need at least one ALU per slice and one cache port")
	}
	if c.FrontEndDepth < 1 || c.RFStages < 0 {
		return fmt.Errorf("core: front-end depth must be >= 1 and RF stages >= 0")
	}
	if c.L1DLat < 1 {
		return fmt.Errorf("core: L1D latency must be >= 1 cycle")
	}
	if inv := c.Invariants; inv != nil {
		if inv.DeadlockBudget < 0 || inv.ReplayBudget < 0 || inv.Every < 0 {
			return fmt.Errorf("core: negative invariant budget")
		}
	}
	if c.Slices == 1 && (c.PartialBypass || c.OoOSlices || c.EarlyBranch ||
		c.EarlyLSDisambig || c.PartialTag || c.NarrowWidth || c.SerialMul) {
		return fmt.Errorf("core: partial-operand techniques need Slices > 1")
	}
	if c.SerialMul && !c.PartialBypass {
		return fmt.Errorf("core: SerialMul requires PartialBypass")
	}
	if c.SumAddressed && !c.PartialTag {
		return fmt.Errorf("core: SumAddressed requires PartialTag")
	}
	if c.UseBimodal && c.UseLocal {
		return fmt.Errorf("core: choose at most one predictor ablation")
	}
	if c.NarrowWidth && !c.PartialBypass {
		return fmt.Errorf("core: NarrowWidth requires PartialBypass")
	}
	return nil
}

// SliceWidth returns the width in bits of one slice.
func (c *Config) SliceWidth() int { return 32 / c.Slices }

// AddrSliceFor16Bits returns the index of the address-generation slice
// whose completion makes the low 16 address bits available (the point at
// which partial tag matching and early disambiguation can engage).
func (c *Config) AddrSliceFor16Bits() int {
	switch c.Slices {
	case 8:
		return 3 // slices 0..3 cover bits 0..15
	case 4:
		return 1 // slices 0 and 1 cover bits 0..15
	default:
		return 0
	}
}

// Hierarchy builds the Table 2 memory system with this config's L1D
// latency override applied.
func (c *Config) Hierarchy() *cache.Hierarchy {
	h := cache.DefaultConfig()
	if c.L1DLat != 1 {
		cfg := h.L1D.Config()
		cfg.HitLatency = c.L1DLat
		h.L1D = cache.MustNew(cfg)
	}
	return h
}
