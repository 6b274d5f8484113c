package isa

// SliceProfile classifies how an operation's output slices depend on its
// input slices in a bit-sliced datapath (paper §6, Figure 8). The timing
// model uses the profile to build per-slice dependence edges; the
// functional substrate in internal/bitslice implements the matching
// slice-at-a-time arithmetic.
type SliceProfile uint8

// Slice profiles.
const (
	// SliceLogic: output slice s depends only on input slices s. Slices may
	// execute out of order (Figure 8c).
	SliceLogic SliceProfile = iota
	// SliceCarry: output slice s depends on input slices s and the carry
	// out of slice s-1, forcing serial low-to-high evaluation (Figure 8b).
	SliceCarry
	// SliceCompareLow: the boolean result lands in bit 0 but requires the
	// full-width comparison; the upper (all-zero) slices are known at
	// decode while slice 0 becomes available only after the top slice of
	// the inputs has been examined (slt and friends).
	SliceCompareLow
	// SliceShiftLeft: output slice s depends on input slices <= s (data
	// moves toward higher bits), enabling low-first pipelined evaluation.
	SliceShiftLeft
	// SliceShiftRight: output slice s depends on input slices >= s, so the
	// high slice of the result is available first.
	SliceShiftRight
	// SliceSerialMul: bit-serial multiplication; output slices emerge
	// low-first, one per cycle after all input slices arrive serially.
	SliceSerialMul
	// SliceFullWidth: the unit collects every input slice before starting
	// and produces all output slices together (divide, floating point).
	SliceFullWidth
)

// SliceProfile returns the slice-dependency profile for the op. For memory
// ops the profile describes the address-generation add; the memory data
// itself is full-width. For branches it describes the comparison.
func (o Op) SliceProfile() SliceProfile {
	switch o {
	case OpAND, OpOR, OpXOR, OpNOR, OpANDI, OpORI, OpXORI, OpLUI,
		OpMFHI, OpMFLO, OpMTHI, OpMTLO, OpNOP:
		return SliceLogic
	case OpADD, OpADDU, OpSUB, OpSUBU, OpADDI, OpADDIU:
		return SliceCarry
	case OpSLT, OpSLTU, OpSLTI, OpSLTIU:
		return SliceCompareLow
	case OpSLL, OpSLLV:
		return SliceShiftLeft
	case OpSRL, OpSRA, OpSRLV, OpSRAV:
		return SliceShiftRight
	case OpMULT, OpMULTU:
		return SliceSerialMul
	case OpDIV, OpDIVU,
		OpADDS, OpSUBS, OpMULS, OpDIVS, OpSQRTS, OpABSS, OpNEGS, OpMOVS,
		OpCVTSW, OpCVTWS, OpCEQS, OpCLTS, OpCLES, OpMFC1, OpMTC1:
		return SliceFullWidth
	case OpLB, OpLBU, OpLH, OpLHU, OpLW, OpLWC1,
		OpSB, OpSH, OpSW, OpSWC1:
		return SliceCarry // effective address generation
	case OpBEQ, OpBNE:
		return SliceLogic // per-slice equality comparison
	case OpBLEZ, OpBGTZ, OpBLTZ, OpBGEZ:
		return SliceCompareLow // sign test needs the top slice
	case OpJ, OpJAL:
		return SliceLogic
	case OpJR, OpJALR:
		return SliceFullWidth // full target address required to redirect
	case OpBC1T, OpBC1F:
		return SliceFullWidth
	}
	return SliceFullWidth
}

// EqualityBranch reports whether the op is one of the two conditional
// branch types (beq, bne) that can detect a misprediction from a partial
// comparison: a single differing operand slice refutes asserted equality
// without knowledge of the remaining bits (paper §5.3).
func (o Op) EqualityBranch() bool { return o == OpBEQ || o == OpBNE }

// NeedsSignBit reports whether the branch type tests the operand sign and
// therefore cannot resolve before the top slice is available.
func (o Op) NeedsSignBit() bool {
	switch o {
	case OpBLEZ, OpBGTZ, OpBLTZ, OpBGEZ:
		return true
	}
	return false
}

// InputSliceRange returns which input slices (of the op's register
// sources) are required to produce output slice out of an op with this
// profile, for a datapath split into nSlices slices. Every slice profile
// needs a contiguous range, so the requirement is returned as the
// half-open interval [lo, hi) — an empty requirement has lo == hi. The
// boolean serialCarry result indicates an additional dependence on the
// op's own previous output slice (the carry chain). The timing model
// derives its per-slice dependence masks from it once per machine.
func (p SliceProfile) InputSliceRange(out, nSlices int) (lo, hi int, serialCarry bool) {
	switch p {
	case SliceLogic:
		return out, out + 1, false
	case SliceCarry:
		return out, out + 1, out > 0
	case SliceCompareLow:
		if out == 0 {
			return 0, nSlices, false
		}
		return 0, 0, false // upper slices are constant zero
	case SliceShiftLeft:
		return 0, out + 1, false
	case SliceShiftRight:
		return out, nSlices, false
	default: // SliceSerialMul, SliceFullWidth
		return 0, nSlices, false
	}
}
