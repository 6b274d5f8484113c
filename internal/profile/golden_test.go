package profile_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"pok/internal/core"
	"pok/internal/profile"
	"pok/internal/workload"
)

// Golden CPI stacks: the attribution of every workload under the simple
// pipeline and both bit-slice widths at a short budget, plus two runs
// long enough to pass the standard recorder's event-ring bound, pinned
// against testdata/cpistack_golden.json. The table was generated by
// building each stack from the run's complete event stream; any change
// to how cycles are attributed shows up here as a changed component.
//
// On a mismatch the test prints the complete table it computed, ready
// to replace the file when a change is meant to move the attribution.

const cpiGoldenFile = "testdata/cpistack_golden.json"

// goldenShortBenches is the -short subset (race-detector runs).
var goldenShortBenches = []string{"gcc", "li", "mcf"}

// goldenStack is one table entry: the stack without its labels.
type goldenStack struct {
	Cycles int64                        `json:"cycles"`
	Insts  uint64                       `json:"insts"`
	Comp   [profile.NumComponents]int64 `json:"comp"`
}

// goldenCells lists the (bench, config, budget) cells of the table.
func goldenCells() []struct {
	bench string
	cfg   core.Config
	insts uint64
} {
	type cell = struct {
		bench string
		cfg   core.Config
		insts uint64
	}
	var cells []cell
	for _, bench := range workload.Names() {
		for _, cfg := range invariantConfigs() {
			cells = append(cells, cell{bench, cfg, 10_000})
		}
	}
	for _, bench := range []string{"gzip", "mcf"} {
		cells = append(cells, cell{bench, core.BitSliced(4), 300_000})
	}
	return cells
}

func TestCPIStackGolden(t *testing.T) {
	want := map[string]goldenStack{}
	if b, err := os.ReadFile(filepath.FromSlash(cpiGoldenFile)); err == nil {
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatalf("%s: %v", cpiGoldenFile, err)
		}
	} else if !os.IsNotExist(err) {
		t.Fatal(err)
	}

	got := map[string]goldenStack{}
	for _, c := range goldenCells() {
		if testing.Short() && (c.insts > 10_000 || !slices.Contains(goldenShortBenches, c.bench)) {
			continue
		}
		key := fmt.Sprintf("%s/%s/%d", c.bench, c.cfg.Name, c.insts)
		r, st := profiledStack(t, c.bench, c.cfg, c.insts)
		if st.Sum() != r.Cycles || st.Insts != r.Insts {
			t.Errorf("%s: stack %d cycles / %d insts, run %d / %d",
				key, st.Sum(), st.Insts, r.Cycles, r.Insts)
		}
		got[key] = goldenStack{Cycles: st.Cycles, Insts: st.Insts, Comp: st.Comp}
	}

	mismatch := false
	for k, g := range got {
		if w, ok := want[k]; !ok || w != g {
			mismatch = true
			t.Errorf("%s: stack %+v, golden %+v", k, g, w)
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
		t.Logf("computed table (%d entries):\n%s", len(got), cpiGoldenTable(t, got))
	}
}

// cpiGoldenTable renders the table as the testdata file's JSON, one
// entry per line in key order.
func cpiGoldenTable(t *testing.T, m map[string]goldenStack) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("{\n")
	for i, k := range keys {
		v, err := json.Marshal(m[k])
		if err != nil {
			t.Fatal(err)
		}
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "  %q: %s%s\n", k, v, sep)
	}
	b.WriteString("}\n")
	return b.String()
}
