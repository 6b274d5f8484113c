package core

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"pok/internal/workload"
)

// Golden Result digests: cycle-exact behaviour pinned by hashes rather
// than by one implementation agreeing with another. Every workload runs
// under four machines, each with wrong-path execution off and on, in
// the three run lifecycles the timing core offers — a warm fixed-budget
// run, a sampled run, and a checkpointed run resumed from its first
// snapshot. Each Result is hashed as fnv64a over its JSON encoding and
// compared against testdata/golden_results.json.
//
// The table is regenerated by hand only when a change is meant to alter
// simulated behaviour: on any mismatch the test prints the complete
// table it computed, ready to replace the file.

const goldenFile = "testdata/golden_results.json"

// Run shapes for the three modes. Budgets stay small so the full matrix
// finishes in seconds; the sampled shape has several windows separated
// by functionally-warmed skips, and the checkpoint cadence leaves
// several snapshots before the budget commits.
const (
	goldenInsts     = 12_000
	goldenSampleLen = 1_500
	goldenSkipLen   = 2_500
	goldenSamples   = 4
	goldenCkptEvery = 4_000
)

// goldenShortBenches is the -short subset (race-detector runs).
var goldenShortBenches = []string{"gcc", "li", "mcf"}

func goldenConfigs() []Config {
	var out []Config
	for _, c := range []Config{BaseConfig(), SimplePipelined(2), BitSliced(2), BitSliced(4)} {
		for _, wp := range []bool{false, true} {
			c.WrongPath = wp
			out = append(out, c)
		}
	}
	return out
}

// resultDigest is fnv64a over the Result's JSON encoding.
func resultDigest(t *testing.T, r *Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenRun executes one mode of one (workload, config) cell.
func goldenRun(t *testing.T, mode string, w *workload.Workload, cfg Config) *Result {
	t.Helper()
	prog, err := w.Program(w.DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	switch mode {
	case "warm":
		res, err = RunWarm(prog, cfg, w.FastForward, goldenInsts)
	case "sampled":
		res, err = RunSampled(prog, cfg, w.FastForward,
			goldenSampleLen, goldenSkipLen, goldenSamples)
	case "resume":
		sink := &captureSink{}
		runCkpt(t, w, cfg, goldenInsts, goldenCkptEvery, sink)
		if len(sink.snaps) == 0 {
			t.Fatal("checkpointed run wrote no snapshots")
		}
		res = resumeCkpt(t, sink.snaps[0], cfg, goldenInsts, goldenCkptEvery, &captureSink{})
	default:
		t.Fatalf("unknown mode %q", mode)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestGoldenResults(t *testing.T) {
	want := map[string]string{}
	if b, err := os.ReadFile(filepath.FromSlash(goldenFile)); err == nil {
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatalf("%s: %v", goldenFile, err)
		}
	} else if !os.IsNotExist(err) {
		t.Fatal(err)
	}

	benches := workload.Names()
	if testing.Short() {
		benches = goldenShortBenches
	}
	var mu sync.Mutex
	got := map[string]string{}
	t.Run("cells", func(t *testing.T) {
		for _, bench := range benches {
			w := workload.MustGet(bench)
			for _, cfg := range goldenConfigs() {
				for _, mode := range []string{"warm", "sampled", "resume"} {
					key := fmt.Sprintf("%s/%s/%s/wp=%v", mode, bench, cfg.Name, cfg.WrongPath)
					cfg, mode := cfg, mode
					t.Run(key, func(t *testing.T) {
						t.Parallel()
						d := resultDigest(t, goldenRun(t, mode, w, cfg))
						mu.Lock()
						got[key] = d
						mu.Unlock()
					})
				}
			}
		}
	})
	if t.Failed() {
		return
	}

	mismatch := false
	for k, d := range got {
		if want[k] != d {
			mismatch = true
			t.Errorf("%s: digest %s, golden %q", k, d, want[k])
		}
	}
	if !testing.Short() {
		for k := range want {
			if _, ok := got[k]; !ok {
				mismatch = true
				t.Errorf("%s: golden entry no longer computed", k)
			}
		}
	}
	if mismatch {
		t.Logf("computed table (%d entries):\n%s", len(got), goldenTable(got))
	}
}

// goldenTable renders digests as the testdata file's JSON, one entry per
// line in key order.
func goldenTable(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := "{\n"
	for i, k := range keys {
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		out += fmt.Sprintf("  %q: %q%s\n", k, m[k], sep)
	}
	return out + "}\n"
}
