package core

import (
	"fmt"

	"pok/internal/emu"
)

// RunSampled performs SMARTS-style sampled simulation: alternating
// detailed timing windows of sampleLen committed instructions with
// functionally-warmed fast-forward gaps of skipLen instructions. During a
// gap the caches and the branch predictor continue to observe the
// instruction stream (functional warming), so each measurement window
// starts with warm microarchitectural state; only the pipeline itself is
// cold at window entry.
//
// The returned Result aggregates the measured windows: Insts counts only
// sampled instructions and Cycles only sampled cycles, so IPC estimates
// the whole-program IPC at a fraction of the simulation cost. Windows
// run on Run's cycle driver, so the deadlock watchdog applies: a window
// that commits nothing for the budget ends the run with a
// *DeadlockError. With a telemetry Collector attached, the Result
// carries its Summary.
func RunSampled(prog *emu.Program, cfg Config, warmup, sampleLen, skipLen uint64,
	nSamples int) (*Result, error) {
	if sampleLen == 0 || nSamples < 1 {
		return nil, fmt.Errorf("core: sampled run needs sampleLen > 0 and nSamples >= 1")
	}
	s, err := NewSim(prog, cfg, 0)
	if err != nil {
		return nil, err
	}
	if warmup > 0 {
		if err := s.warmSkip(warmup); err != nil {
			return nil, err
		}
	}
	for i := 0; i < nSamples; i++ {
		done, err := s.runWindow(sampleLen)
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
		if skipLen > 0 {
			if err := s.warmSkip(skipLen); err != nil {
				return nil, err
			}
			if s.em.Halted() {
				break
			}
		}
	}
	s.res.Config = cfg.Name + "/sampled"
	s.deriveStats()
	return &s.res, nil
}

// warmSkip advances the program functionally while keeping the caches and
// the branch predictor trained on the skipped instructions.
func (s *Sim) warmSkip(n uint64) error {
	var lastLine uint32
	haveLine := false
	_, err := s.em.Run(n, func(d *emu.DynInst) {
		line := d.PC &^ uint32(s.hier.L1I.Config().LineBytes-1)
		if !haveLine || line != lastLine {
			s.hier.AccessInst(line)
			lastLine, haveLine = line, true
		}
		op := d.Inst.Op
		if op.IsLoad() || op.IsStore() {
			s.hier.AccessData(d.EffAddr)
		}
		if op.IsControl() {
			p := s.pred.Predict(d.PC, &d.Inst)
			s.pred.Resolve(d.PC, &d.Inst, p, d.Taken, d.NextPC)
		}
	})
	return err
}

// runWindow simulates until sampleLen more instructions commit and the
// pipeline drains, leaving the simulator ready for the next phase. It
// reports whether the program finished inside the window.
func (s *Sim) runWindow(sampleLen uint64) (programDone bool, err error) {
	// Re-arm the fetch budget relative to what has already been fetched,
	// and restart the watchdog at the window's first cycle.
	s.maxInsts = s.fetchedCnt + sampleLen
	s.traceDone = false
	s.lastCommitC = s.now
	if _, err := s.drive(); err != nil {
		return false, err
	}
	s.now++ // account the drain cycle, as finalize does
	s.res.Cycles = s.now
	// Prepare for a functional skip: drop any peeked instruction so the
	// emulator's position is exact, and clear the fetch-line state.
	s.pendingOK = false
	s.haveLine = false
	return s.em.Halted(), nil
}
