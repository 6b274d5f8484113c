# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-race vet bench prof perfbench-test ci check fuzz-smoke soak soak-smoke fleet-smoke chaos-smoke ckpt-smoke eval eval-quick examples loc clean

all: build test

# The full pre-merge gate: static checks (vet plus the failing gofmt
# gate), a clean build, and the test suite under the race detector (the
# experiment drivers fan simulations out over goroutines, so racy
# scheduling code cannot hide).
ci: vet
	$(GO) build ./...
	$(GO) test -race ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Quick race-detector pass: short mode trims the heavyweight
# differential sweeps so this finishes in a couple of minutes, giving
# fast feedback on data races before the full `make ci` race run.
test-race:
	$(GO) test -race -short ./...

# vet exits non-zero when gofmt would rewrite any file, instead of
# merely listing offenders; `make ci` (and the GitHub workflow) run it.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: unformatted files:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi

# Checked runs: every workload against the lockstep oracle, the
# invariant checker and the deadlock watchdog, on both schedulers, with
# a seeded fault-injection campaign the machine must recover from —
# then one deliberate corruption and one wedge to prove the detectors
# themselves fire (those two runs MUST fail).
check:
	$(GO) run ./cmd/pok-check -all -insts 30000 -inject -seed 1 -min-faults 100
	@mkdir -p ci-results
	@if $(GO) run ./cmd/pok-check -bench li -corrupt 1000 -json ci-results/corrupt.json >/dev/null 2>&1; then \
		echo "check: seeded corruption went undetected"; exit 1; fi
	@if $(GO) run ./cmd/pok-check -bench li -wedge 500 -deadlock-budget 2000 -json ci-results/wedge.json >/dev/null 2>&1; then \
		echo "check: wedged pipeline went undetected"; exit 1; fi
	@for f in ci-results/corrupt.json ci-results/wedge.json; do \
		jq -e 'length > 0 and all(.[]; (.trace // []) | length > 0)' $$f >/dev/null || \
		{ echo "check: $$f: a failure report carries no trace"; exit 1; }; done
	@echo "check: divergence + deadlock detectors verified, with traces"

# Short native-fuzzing smoke for the assembler and the emulator (the
# checked-in corpora under internal/*/testdata/fuzz run on every plain
# `go test` as regression inputs).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzAssemble -fuzztime 30s ./internal/asm
	$(GO) test -run '^$$' -fuzz FuzzEmuStep -fuzztime 30s ./internal/emu
	$(GO) test -run '^$$' -fuzz FuzzEmuDecodePaths -fuzztime 30s ./internal/emu

# Random-program differential soak (internal/gen + internal/soak).
# soak-smoke is the PR gate: a 15-second time-boxed campaign on the
# bit-sliced configs. soak is the nightly shape: 90s per base seed,
# three seeds, plus one fault-injection campaign per cell. Both exit
# non-zero on any finding, each arriving pre-minimized as a repro
# bundle under soak-out/repros/.
soak-smoke:
	$(GO) run ./cmd/pok-soak -duration 15s -seed 1 -configs slice2,slice4 \
		-scheduler both -out soak-out -q

soak:
	$(GO) run ./cmd/pok-soak -duration 90s -seeds 3 -inject-seeds 1 \
		-out soak-out

# Distributed-fleet smoke (cmd/pok-serve): coordinator + two workers,
# a short seeded-fault soak submitted over HTTP, one worker killed
# mid-run. Passes only if the job completes via lease-expiry requeue
# AND the merged findings are byte-identical to a single-process run.
fleet-smoke:
	bash scripts/fleet_smoke.sh

# Crash-safety smoke (scripts/chaos_smoke.sh): the same campaign with
# the coordinator journaled, both workers behind a seeded
# fault-injecting transport, and the coordinator SIGKILLed and
# restarted from its journal mid-run. Passes only if the restarted
# coordinator reports journal recovery AND the merged findings stay
# byte-identical to the single-process run.
chaos-smoke:
	bash scripts/chaos_smoke.sh

# Checkpoint/resume smoke (scripts/ckpt_smoke.sh): a ~2M-instruction
# pok-sim run with periodic architectural checkpoints is SIGKILLed at
# a random snapshot, resumed from the surviving delta chain, and must
# finish byte-identical to an uninterrupted run of the same cadence.
ckpt-smoke:
	bash scripts/ckpt_smoke.sh

# Reduced-budget benchmark versions of every table/figure plus the
# substrate micro-benchmarks, then a quick-budget pok-bench pass that
# refreshes the repo-root BENCH_PR10.json regression record (the CI
# smoke gate compares against the newest committed BENCH_*.json via
# sort -V, so the emulator-throughput `emu` and checkpointing-cost
# `ckpt` experiments are gated too).
bench:
	$(GO) test -bench=. -benchmem ./...
	$(GO) run ./cmd/pok-bench -json-file BENCH_PR10.json -insts 20000

# CPU profiles of the Figure 11 slice-by-2 and slice-by-4 benchmarks,
# where the timing core's scheduler dominates, and of the checkpointed
# soak campaign a fleet worker runs (oracle, invariant checker and
# snapshot capture): each lands in .bench_build/prof/ (with the test
# binary that resolves its symbols) and its cumulative top is printed.
# The soak campaign also gets a heap profile, printed by bytes
# allocated, since its per-run setup allocation is its GC cost.
# Under fifteen seconds.
prof:
	@mkdir -p .bench_build/prof
	@for b in Figure11SliceBy2 Figure11SliceBy4 SoakCheckpointed; do \
		mem=; [ $$b = SoakCheckpointed ] && mem="-memprofile .bench_build/prof/$$b.mem"; \
		$(GO) test -run '^$$' -bench "^Benchmark$$b\$$" -benchtime 3x \
			-cpuprofile .bench_build/prof/$$b.prof $$mem \
			-o .bench_build/prof/pok.test . || exit 1; \
		$(GO) tool pprof -top -cum -nodecount 30 .bench_build/prof/pok.test \
			.bench_build/prof/$$b.prof || exit 1; \
		[ -z "$$mem" ] || $(GO) tool pprof -sample_index=alloc_space -top -nodecount 20 \
			.bench_build/prof/pok.test .bench_build/prof/$$b.mem || exit 1; \
	done

# The benchmark module's own self-test (perfbench is a separate
# module): vet plus its tests, including the determinism guard and the
# fleet-vs-single-process check. About 15 s.
perfbench-test:
	cd perfbench && GOWORK=off GOFLAGS=-mod=mod $(GO) vet ./... && \
		GOWORK=off GOFLAGS=-mod=mod $(GO) test ./...

# Regenerate the paper's full evaluation into results/.
eval:
	$(GO) run ./cmd/pok-bench -out results -ablations

eval-quick:
	$(GO) run ./cmd/pok-bench -out results -insts 60000

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/characterize
	$(GO) run ./examples/slicecompare gzip
	$(GO) run ./examples/customprog
	$(GO) run ./examples/sampling gcc
	$(GO) run ./examples/minic

# Non-test Go lines per package, then the total: the size yardstick
# for simplicity work. It covers the root module only; perfbench is a
# separate module.
loc:
	@$(GO) list -f '{{.ImportPath}} {{.Dir}} {{join .GoFiles " "}}' ./... | \
	while read -r pkg dir files; do \
		n=0; \
		if [ -n "$$files" ]; then n=$$(cd "$$dir" && cat $$files | wc -l); fi; \
		printf '%7d  %s\n' "$$n" "$$pkg"; \
	done | awk '{ print; total += $$1 } END { printf "%7d  total\n", total }'

clean:
	rm -rf results test_output.txt bench_output.txt soak-out fleet-out chaos-out ckpt-out pok-ckpt
