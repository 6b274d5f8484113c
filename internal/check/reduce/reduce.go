// Package reduce shrinks a failing generated program to a minimal
// reproducer. It implements the classic ddmin delta-debugging loop
// (Zeller & Hildebrandt) over the program's body lines: candidate
// subsets are re-rendered, re-assembled and re-verified under the
// lockstep oracle, and only candidates that still reproduce the
// original failure signature survive. Candidates that fail to assemble
// (e.g. a removed label still referenced by a kept branch) simply test
// negative — the reducer needs no assembly-aware dependency tracking.
package reduce

import (
	"fmt"
	"runtime/debug"
	"time"

	"pok/internal/asm"
	"pok/internal/check"
	"pok/internal/core"
	"pok/internal/emu"
	"pok/internal/sig"
)

// Outcome classifies one run of a (candidate) program. It is the
// shared failure signature of internal/sig — kind "" means the run was
// clean; otherwise it matches check.Report.FailKind plus the
// soak-level kinds "panic" and "timeout", with Field refining the
// match (the diverging commit field, or the violated invariant rule).
// The alias keeps the reducer's matcher and the soak/fleet dedupe
// literally the same code: Outcome.Matches IS sig.Signature.Matches.
type Outcome = sig.Signature

// RunResult is the full observation of one candidate run.
type RunResult struct {
	Outcome Outcome
	// Report is the check report (nil when the candidate did not
	// assemble, panicked, or timed out).
	Report *check.Report
	// Err carries the assembly/setup error or recovered panic text.
	Err string
}

// Runner executes one candidate program source and classifies it.
type Runner func(src string) RunResult

// Classify maps a check.Report to its failure signature (sig.Classify).
func Classify(rep *check.Report) Outcome { return sig.Classify(rep) }

// Assembled is a program source assembled once for any number of
// runs: Prog, or — when assembly failed — Failed, the result every run
// of the source reports (Outcome "error", or "panic" for a recovered
// assembler panic).
type Assembled struct {
	Prog   *emu.Program
	Failed RunResult
}

// Assemble assembles src, recovering an assembler panic.
func Assemble(src string) (a Assembled) {
	defer func() {
		if r := recover(); r != nil {
			a = Assembled{Failed: panicked(r)}
		}
	}()
	prog, err := asm.Assemble(src)
	if err != nil {
		return Assembled{Failed: RunResult{Outcome: Outcome{Kind: "error"}, Err: err.Error()}}
	}
	return Assembled{Prog: prog}
}

// CheckRunner builds a Runner that assembles src and executes it under
// check.RunChecked with cfg/opts (ProgramRunner over Assemble).
func CheckRunner(cfg core.Config, opts check.Options, watchdog time.Duration) Runner {
	run := ProgramRunner(cfg, opts, watchdog)
	return func(src string) RunResult { return run(Assemble(src)) }
}

// ProgramRunner builds a runner that executes an assembled program
// under check.RunChecked with cfg/opts; a failed assembly returns its
// Failed result. The program is only read, so one assembly serves many
// runs. A panic anywhere in simulation is recovered into
// Outcome{Kind: "panic"}; a run exceeding watchdog wall-clock is
// classified Outcome{Kind: "timeout"} (the runaway goroutine is
// abandoned — acceptable for a test harness, and the per-run deadlock
// watchdog inside the core bounds the common case). watchdog <= 0
// disables the wall-clock bound.
func ProgramRunner(cfg core.Config, opts check.Options, watchdog time.Duration) func(Assembled) RunResult {
	return func(a Assembled) RunResult {
		if a.Prog == nil {
			return a.Failed
		}
		done := make(chan RunResult, 1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					done <- panicked(r)
				}
			}()
			rep, err := check.RunChecked(a.Prog, cfg, opts)
			if err != nil {
				done <- RunResult{Outcome: Outcome{Kind: "error"}, Err: err.Error()}
				return
			}
			done <- RunResult{Outcome: Classify(rep), Report: rep}
		}()
		if watchdog <= 0 {
			return <-done
		}
		timer := time.NewTimer(watchdog)
		defer timer.Stop()
		select {
		case r := <-done:
			return r
		case <-timer.C:
			return RunResult{
				Outcome: Outcome{Kind: "timeout"},
				Err:     fmt.Sprintf("run exceeded watchdog %v", watchdog),
			}
		}
	}
}

// panicked is the result of a run that panicked with r; call it from
// the deferred recover so the stack is the panic's.
func panicked(r any) RunResult {
	return RunResult{
		Outcome: Outcome{Kind: "panic"},
		Err:     fmt.Sprintf("panic: %v\n%s", r, debug.Stack()),
	}
}

// DDMin returns a 1-minimal subsequence of lines that still satisfies
// test, evaluating at most maxTests candidates (0 = no bound; the
// algorithm terminates regardless). test must hold on the full input;
// DDMin never calls test on the full input itself.
//
// 1-minimality means removing any single remaining line breaks the
// test — the strongest guarantee ddmin gives without trying all 2^n
// subsets.
func DDMin(lines []string, test func([]string) bool) []string {
	return ddmin(lines, test, 0)
}

// DDMinBounded is DDMin with a cap on candidate evaluations.
func DDMinBounded(lines []string, test func([]string) bool, maxTests int) ([]string, int) {
	tests := 0
	bounded := func(cand []string) bool {
		if maxTests > 0 && tests >= maxTests {
			return false
		}
		tests++
		return test(cand)
	}
	out := ddmin(lines, bounded, maxTests)
	return out, tests
}

func ddmin(lines []string, test func([]string) bool, maxTests int) []string {
	cur := lines
	n := 2
	for len(cur) >= 2 {
		chunks := split(cur, n)
		reduced := false

		// Try each chunk alone.
		for _, c := range chunks {
			if len(c) < len(cur) && test(c) {
				cur, n, reduced = c, 2, true
				break
			}
		}
		if reduced {
			continue
		}
		// Try each complement.
		for i := range chunks {
			comp := complement(chunks, i)
			if len(comp) < len(cur) && test(comp) {
				cur = comp
				n = max(n-1, 2)
				reduced = true
				break
			}
		}
		if reduced {
			continue
		}
		if n >= len(cur) {
			break
		}
		n = min(2*n, len(cur))
	}
	// Final polish: drop single lines while any single drop still
	// reproduces (cheap on the now-tiny input, and guarantees
	// 1-minimality even when the chunk boundaries hid a removable
	// line).
	for i := 0; i < len(cur); {
		cand := append(append([]string{}, cur[:i]...), cur[i+1:]...)
		if len(cand) < len(cur) && test(cand) {
			cur = cand
		} else {
			i++
		}
	}
	return cur
}

func split(lines []string, n int) [][]string {
	if n > len(lines) {
		n = len(lines)
	}
	out := make([][]string, 0, n)
	start := 0
	for i := 0; i < n; i++ {
		end := start + (len(lines)-start)/(n-i)
		out = append(out, lines[start:end])
		start = end
	}
	return out
}

func complement(chunks [][]string, drop int) []string {
	var out []string
	for i, c := range chunks {
		if i != drop {
			out = append(out, c...)
		}
	}
	return out
}

// Result is the outcome of a program reduction.
type Result struct {
	// Body is the minimized body (order-preserving subsequence of the
	// original).
	Body []string
	// Tests is how many candidate evaluations were spent.
	Tests int
}

// Program minimizes body with respect to run: a candidate reproduces
// when rendering (prologue, candidate, epilogue) through render yields
// a program whose outcome Matches ref. maxTests bounds the candidate
// evaluations (0 = unbounded).
func Program(prologue, body, epilogue []string, ref Outcome,
	render func(pro, body, epi []string) string, run Runner, maxTests int) Result {
	test := func(cand []string) bool {
		return run(render(prologue, cand, epilogue)).Outcome.Matches(ref)
	}
	minBody, tests := DDMinBounded(body, test, maxTests)
	return Result{Body: minBody, Tests: tests}
}
