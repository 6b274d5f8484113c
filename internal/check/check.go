// Package check verifies the timing simulator against its functional
// ground truth. It provides the three robustness pillars of the
// reproduction:
//
//   - a lockstep commit oracle (Oracle): a second, independent instance of
//     the functional emulator steps once per committed instruction and
//     diffs the architectural record — PC, source values, destination
//     values, memory effect, control outcome — aborting the run at the
//     first divergence;
//   - the per-cycle structural invariant checker lives in internal/core
//     (core.InvariantConfig) and is enabled by RunChecked;
//   - the deterministic fault injector lives in internal/check/inject and
//     plugs into core.Config.Inject.
//
// RunChecked composes all three around one timing run and renders the
// outcome as a machine-readable Report; cmd/pok-check is its CLI.
package check

import (
	"errors"
	"fmt"

	"pok/internal/core"
	"pok/internal/emu"
)

// Oracle is the lockstep functional reference: an emulator instance
// advanced once per committed instruction, in commit order. Because the
// timing model's speculation (partial tag matches, early branch
// resolution, early disambiguation, injected faults) is timing-only,
// every committed record must match the reference exactly; any
// difference means the machine corrupted, reordered, dropped or
// duplicated architectural state.
type Oracle struct {
	em        *emu.Emulator
	committed uint64
	d         emu.DynInst // the reference record, reused for every commit
}

// NewOracle builds the reference emulator for prog and fast-forwards it
// warmup instructions so it is aligned with a core.RunWarm(prog, cfg,
// warmup, ...) timing run.
func NewOracle(prog *emu.Program, warmup uint64) (*Oracle, error) {
	em := emu.New(prog)
	if warmup > 0 {
		if _, err := em.Run(warmup, nil); err != nil {
			return nil, fmt.Errorf("check: oracle warmup: %w", err)
		}
	}
	return &Oracle{em: em}, nil
}

// NewOracleFromState rebuilds the reference emulator from a checkpoint's
// architectural state. At a quiescent snapshot boundary the timing
// machine's emulator sits exactly at the commit frontier — everything it
// executed has committed — so the same State seeds both the resumed
// machine and its lockstep oracle, and no separate oracle state needs to
// travel in the checkpoint. committed seeds the verified-commit counter
// (Meta.Insts of the snapshot).
func NewOracleFromState(st *emu.State, committed uint64) (*Oracle, error) {
	em, err := emu.NewFromState(st)
	if err != nil {
		return nil, fmt.Errorf("check: oracle restore: %w", err)
	}
	return &Oracle{em: em, committed: committed}, nil
}

// Committed returns how many commits the oracle has verified.
func (o *Oracle) Committed() uint64 { return o.committed }

// Emulator exposes the reference emulator (for final-state assertions in
// tests).
func (o *Oracle) Emulator() *emu.Emulator { return o.em }

// CheckCommit implements core.CommitChecker: step the reference once and
// diff the committed record against it. A matching commit allocates
// nothing: the reference steps into a record the oracle holds.
func (o *Oracle) CheckCommit(r *core.CommitRecord) error {
	d := &o.d
	if err := o.em.StepInto(d); err != nil {
		if errors.Is(err, emu.ErrHalted) {
			return o.div(r, "stream", "halted reference (no instruction left)",
				fmt.Sprintf("commit of pc=0x%x", r.PC))
		}
		return fmt.Errorf("check: reference emulator at commit %d: %w", o.committed, err)
	}
	o.committed++
	if d.PC != r.PC {
		return o.div(r, "pc", hex(d.PC), hex(r.PC))
	}
	if d.Inst != r.Inst {
		return o.div(r, "inst", d.Inst.String(), r.Inst.String())
	}
	if d.NSrc != r.NSrc {
		return o.div(r, "nsrc", fmt.Sprint(d.NSrc), fmt.Sprint(r.NSrc))
	}
	for i := 0; i < d.NSrc && i < len(d.SrcVal); i++ {
		if d.SrcVal[i] != r.SrcVal[i] {
			return o.div(r, fmt.Sprintf("src%d", i), hex(d.SrcVal[i]), hex(r.SrcVal[i]))
		}
	}
	if d.Dst != r.Dst {
		return o.div(r, "dst", d.Dst.String(), r.Dst.String())
	}
	if d.Dst != 0 && d.DstVal != r.DstVal {
		return o.div(r, "dstval", hex(d.DstVal), hex(r.DstVal))
	}
	if d.Dst2 != r.Dst2 {
		return o.div(r, "dst2", d.Dst2.String(), r.Dst2.String())
	}
	if d.Dst2 != 0 && d.Dst2Val != r.Dst2Val {
		return o.div(r, "dst2val", hex(d.Dst2Val), hex(r.Dst2Val))
	}
	if d.Inst.Op.IsLoad() || d.Inst.Op.IsStore() {
		if d.EffAddr != r.EffAddr {
			return o.div(r, "effaddr", hex(d.EffAddr), hex(r.EffAddr))
		}
	}
	if d.Inst.Op.IsControl() && d.Taken != r.Taken {
		return o.div(r, "taken", fmt.Sprint(d.Taken), fmt.Sprint(r.Taken))
	}
	if d.NextPC != r.NextPC {
		return o.div(r, "nextpc", hex(d.NextPC), hex(r.NextPC))
	}
	return nil
}

func (o *Oracle) div(r *core.CommitRecord, field, want, got string) error {
	return &Divergence{
		Seq:    r.Seq,
		Index:  r.Index,
		Cycle:  r.Cycle,
		PC:     hex(r.PC),
		Disasm: r.Inst.String(),
		Field:  field,
		Want:   want,
		Got:    got,
	}
}

func hex(v uint32) string { return fmt.Sprintf("0x%08x", v) }

// Divergence is the first point at which the timing machine's committed
// architectural state differed from the functional reference. Want is
// the reference's value, Got the machine's.
type Divergence struct {
	Seq    uint64 `json:"seq"`
	Index  uint64 `json:"index"`
	Cycle  int64  `json:"cycle"`
	PC     string `json:"pc"`
	Disasm string `json:"disasm"`
	Field  string `json:"field"`
	Want   string `json:"want"`
	Got    string `json:"got"`
}

func (d *Divergence) Error() string {
	return fmt.Sprintf(
		"check: commit divergence at seq %d (commit #%d, cycle %d, pc %s `%s`): %s: reference %s, machine %s",
		d.Seq, d.Index, d.Cycle, d.PC, d.Disasm, d.Field, d.Want, d.Got)
}
