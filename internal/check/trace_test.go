package check

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pok/internal/asm"
	"pok/internal/check/inject"
	"pok/internal/core"
	"pok/internal/emu"
	"pok/internal/workload"
)

// traceCase is one failing checked run; opts builds fresh options (with
// a fresh injector) for each of the two runs compared.
type traceCase struct {
	name string
	prog *emu.Program
	cfg  core.Config
	opts func() Options
}

// TestTraceWindowRing: the failure-window ring RunChecked attaches keeps
// every event Report.Trace reads. On the seeded divergence and the wedge
// of check_test.go and on both checked-in repro bundles, the trace
// equals the one built from an unbounded ring over the same run.
func TestTraceWindowRing(t *testing.T) {
	li := workload.MustGet("li")
	liProg, err := li.Program(li.DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	cases := []traceCase{
		{"seeded-divergence", liProg, core.BitSliced(2), func() Options {
			return Options{MaxInsts: 20_000, Warmup: li.FastForward,
				Injector: inject.New(inject.Options{Seed: 3, CorruptOn: true, CorruptAt: 500})}
		}},
		{"wedge-deadlock", liProg, core.BitSliced(2), func() Options {
			return Options{MaxInsts: 20_000, Warmup: li.FastForward,
				Injector:   inject.New(inject.Options{Seed: 5, WedgeOn: true, WedgeSeq: 300}),
				Invariants: &core.InvariantConfig{DeadlockBudget: 2_000}}
		}},
	}
	cases = append(cases, bundleCases(t)...)

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := RunChecked(tc.prog, tc.cfg, tc.opts())
			if err != nil {
				t.Fatal(err)
			}
			full := tc.cfg
			rec := full.NewRecorder(math.MaxInt)
			full.Collector = rec
			ref, err := RunChecked(tc.prog, full, tc.opts())
			if err != nil {
				t.Fatal(err)
			}
			if rep.OK || ref.OK || rep.FailKind != ref.FailKind {
				t.Fatalf("failure kinds %q and %q, want one failure twice", rep.FailKind, ref.FailKind)
			}
			var seq uint64
			switch {
			case ref.Divergence != nil:
				seq = ref.Divergence.Seq
			case ref.Invariant != nil:
				seq = ref.Invariant.Seq
			}
			want := traceWindow(rec.Events(), seq)
			if len(want) == 0 {
				t.Fatal("the unbounded ring yields an empty trace")
			}
			if !reflect.DeepEqual(rep.Trace, want) {
				t.Fatalf("window-ring trace (%d lines) differs from the unbounded one (%d lines)\ngot:  %q\nwant: %q",
					len(rep.Trace), len(want), rep.Trace, want)
			}
			t.Logf("%d events in the run, ring of %d", len(rec.Events()), traceRingCap(&tc.cfg))
		})
	}
}

// bundleCases loads the checked-in repro bundles under
// internal/gen/testdata/repros.
func bundleCases(t *testing.T) []traceCase {
	t.Helper()
	dirs, err := filepath.Glob(filepath.Join("..", "gen", "testdata", "repros", "*"))
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no repro bundles found (%v)", err)
	}
	var out []traceCase
	for _, dir := range dirs {
		var b struct {
			Config    string          `json:"config"`
			Scheduler string          `json:"scheduler"`
			Inject    *inject.Options `json:"inject"`
			MaxInsts  uint64          `json:"max_insts"`
		}
		raw, err := os.ReadFile(filepath.Join(dir, "repro.json"))
		if err == nil {
			err = json.Unmarshal(raw, &b)
		}
		if err != nil {
			t.Fatal(err)
		}
		src, err := os.ReadFile(filepath.Join(dir, "prog.s"))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := asm.Assemble(string(src))
		if err != nil {
			t.Fatal(err)
		}
		var cfg core.Config
		switch b.Config {
		case "slice2":
			cfg = core.BitSliced(2)
		case "slice4":
			cfg = core.BitSliced(4)
		default:
			t.Fatalf("%s: unexpected config %q", dir, b.Config)
		}
		cfg.LegacyScheduler = b.Scheduler == "legacy"
		out = append(out, traceCase{filepath.Base(dir), prog, cfg, func() Options {
			o := Options{MaxInsts: b.MaxInsts}
			if b.Inject != nil {
				o.Injector = inject.New(*b.Inject)
			}
			return o
		}})
	}
	return out
}
