// Package workload provides the benchmark suite used throughout the
// reproduction. The paper evaluates 11 programs from SPECint95/2000
// (Table 1); SPEC sources and reference inputs are not redistributable, so
// each benchmark is replaced by a synthetic kernel, written in the
// simulator's own assembly language, that mimics the dominant behaviour of
// its namesake: bzip's move-to-front coding, gzip's LZ77 match search,
// li's tag-bit pointer traversal (the paper's Figure 5 example), mcf's
// pointer chasing, and so on.
//
// Every kernel is paired with a pure-Go reference model; tests assert that
// the assembled program and the reference produce identical output, so the
// workloads double as end-to-end tests of the ISA, assembler and emulator.
package workload

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"pok/internal/asm"
	"pok/internal/emu"
)

// ErrUnknownWorkload identifies a lookup of a benchmark name that is
// not registered (in either the assembly or the compiled suite); test
// for it with errors.Is.
var ErrUnknownWorkload = errors.New("unknown workload")

// Workload is one benchmark program generator.
type Workload struct {
	// Name matches the paper's Table 1 benchmark name.
	Name string
	// Paper identifies the SPEC program this kernel stands in for.
	Paper string
	// Description summarizes the kernel's behaviour.
	Description string
	// DefaultScale is the outer-iteration count used by the experiment
	// harnesses (large enough to exceed any instruction budget they use).
	DefaultScale int
	// FastForward is the number of instructions the experiment harnesses
	// functionally execute before measurement begins, skipping
	// initialization phases (the paper fast-forwards 1B instructions).
	FastForward uint64

	source    func(scale int) string
	reference func(scale int) string
}

var (
	registry = map[string]*Workload{}

	// regErr accumulates registration mistakes (duplicate names) instead
	// of panicking inside package init, where a crash would predate main
	// and produce an unactionable stack. Get surfaces it on first use.
	regErr error
)

func register(w *Workload) {
	if _, dup := registry[w.Name]; dup {
		regErr = errors.Join(regErr, fmt.Errorf("workload: duplicate %s", w.Name))
		return
	}
	registry[w.Name] = w
}

// RegistrationError reports any benchmark-table registration mistakes
// (duplicate names in either the assembly or compiled suite) accumulated
// during package init; nil means the tables are coherent.
func RegistrationError() error {
	return errors.Join(regErr, compiledRegErr)
}

// Names returns all benchmark names in the paper's Table 1 order.
func Names() []string {
	order := []string{"bzip", "gcc", "go", "gzip", "ijpeg", "li",
		"mcf", "parser", "twolf", "vortex", "vpr"}
	var out []string
	for _, n := range order {
		if _, ok := registry[n]; ok {
			out = append(out, n)
		}
	}
	// Any extras (future workloads) follow alphabetically.
	var extra []string
	for n := range registry {
		found := false
		for _, o := range order {
			if n == o {
				found = true
				break
			}
		}
		if !found {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}

// Get returns the named workload. A registration error (duplicate names
// at init) is surfaced here, on first use, rather than crashing init.
// An unknown name returns a wrapped ErrUnknownWorkload whose message
// lists every available benchmark.
func Get(name string) (*Workload, error) {
	if regErr != nil {
		return nil, regErr
	}
	w, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workload: %w %q (available: %s)",
			ErrUnknownWorkload, name, strings.Join(Names(), ", "))
	}
	return w, nil
}

// MustGet returns the named workload or panics (for static tables). The
// panic message lists the available workload names, so a typo in a
// static table is diagnosable from the crash alone.
func MustGet(name string) *Workload {
	w, err := Get(name)
	if err != nil {
		panic(err)
	}
	return w
}

// Source returns the assembly source at the given scale (outer iteration
// count). Scale must be positive.
func (w *Workload) Source(scale int) string {
	if scale < 1 {
		scale = 1
	}
	return w.source(scale)
}

// Reference returns the output the program must print at the given scale,
// computed by the Go reference model.
func (w *Workload) Reference(scale int) string {
	if scale < 1 {
		scale = 1
	}
	return w.reference(scale)
}

// Program assembles the workload at the given scale.
func (w *Workload) Program(scale int) (*emu.Program, error) {
	prog, err := asm.Assemble(w.Source(scale))
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	return prog, nil
}

// lcgNext advances the shared linear congruential generator every kernel
// uses (and mirrors in assembly): x' = x*1103515245 + 12345 (mod 2^32).
func lcgNext(x uint32) uint32 {
	return x*1103515245 + 12345
}

// The assembly fragment implementing one LCG step on register $s7 using
// $at-free temporaries $t8/$t9. Clobbers $t8, $t9, hi, lo.
const lcgAsm = `
	li $t8, 1103515245
	mult $s7, $t8
	mflo $s7
	addiu $s7, $s7, 12345
`

// epilogue prints $s6 as the checksum and exits.
const epilogue = `
	li $v0, 1
	move $a0, $s6
	syscall
	li $v0, 10
	syscall
`
