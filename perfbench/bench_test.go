package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"pok/internal/soak"
)

var workloadNames = []string{"ladder", "soak-fleet"}

func smallBuild(t *testing.T, name string, seed uint64) func() (benchWorkload, error) {
	dir := t.TempDir()
	return func() (benchWorkload, error) { return newWorkload(name, seed, true, dir) }
}

func small(t *testing.T, name string, seed uint64) benchWorkload {
	t.Helper()
	w, err := smallBuild(t, name, seed)()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// tracedUnit runs one unit under a fresh tracer, as run does.
func tracedUnit(t *testing.T, w benchWorkload) (unitResult, *tracer) {
	t.Helper()
	tr := newTracer()
	root := tr.begin("unit", 0)
	u, err := w.unit(tr)
	tr.end(root)
	if err != nil {
		t.Fatal(err)
	}
	return u, tr
}

func checkMetrics(t *testing.T, got map[string]metric, want []struct{ name, unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics reported, want %d", len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.name]
		if !ok {
			t.Errorf("metric %s missing", m.name)
		} else if g.Unit != m.unit {
			t.Errorf("metric %s has unit %q, want %q", m.name, g.Unit, m.unit)
		}
	}
}

// TestEveryWorkloadReportsEveryMetric runs each workload at tiny sizes,
// untraced and traced, and checks the metric names and units, that no
// operation failed, that the spans nest, and that every traced unit's
// self times plus its remainder add up to its wall time.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				rep, err := run(smallBuild(t, name, 3), 0, traced)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Failed != 0 || rep.Attempted == 0 || !rep.Correct {
					t.Fatalf("traced=%v: attempted %d failed %d correct %v problems %v",
						traced, rep.Attempted, rep.Failed, rep.Correct, rep.problems)
				}
				if !traced {
					checkMetrics(t, rep.Metrics, endToEnd)
					for _, m := range endToEnd {
						if rep.Metrics[m.name].Value <= 0 {
							t.Errorf("%s = %v, want > 0", m.name, rep.Metrics[m.name].Value)
						}
					}
					continue
				}
				checkMetrics(t, rep.Metrics, perLayer)
				if err := checkNesting(rep.spans); err != nil {
					t.Fatal(err)
				}
				if len(rep.roots) == 0 {
					t.Fatal("no traced unit")
				}
				byID := map[int]span{}
				for _, s := range rep.spans {
					byID[s.ID] = s
				}
				for _, root := range rep.roots {
					self, rem := layerStack(rep.spans, root)
					sum := rem
					for _, d := range self {
						sum += d
					}
					if sum != byID[root].dur() {
						t.Errorf("unit span %d: self times + remainder = %v, wall %v", root, sum, byID[root].dur())
					}
					if len(self) == 0 {
						t.Errorf("unit span %d has no layer spans", root)
					}
				}
			}
		})
	}
}

// TestExactCountsRepeat is the determinism guard: two workloads built
// from the same seed, one unit untraced and one traced, must agree on
// the exact counts, so tracing from outside does not perturb simulation.
func TestExactCountsRepeat(t *testing.T) {
	exact := map[string][]string{
		"ladder":     {"core.insts", "core.cycles", "core.mispredicts"},
		"soak-fleet": {"soak.runs", "soak.findings"},
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			wa, wb := small(t, name, 5), small(t, name, 5)
			a, err := wa.unit(nil)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := tracedUnit(t, wb)
			for _, k := range exact[name] {
				if a.counts[k] != b.counts[k] {
					t.Errorf("%s: %v untraced, %v traced", k, a.counts[k], b.counts[k])
				}
			}
			if a.counts[exact[name][0]] == 0 {
				t.Errorf("%s is zero", exact[name][0])
			}
			if a.digest != b.digest {
				t.Errorf("outcomes differ: %s untraced, %s traced", a.digest, b.digest)
			}
			if sa, ok := wa.(*soakFleet); ok && string(sa.report) != string(wb.(*soakFleet).report) {
				t.Errorf("fleet reports differ:\n%s\n%s", sa.report, wb.(*soakFleet).report)
			}
		})
	}
	t.Run("ckpt.snapshots", func(t *testing.T) {
		var got []float64
		for i := 0; i < 2; i++ {
			w := small(t, "soak-fleet", 5)
			tracedUnit(t, w)
			layer, problems, err := w.probe(newTracer())
			if err != nil || len(problems) > 0 {
				t.Fatal(err, problems)
			}
			got = append(got, layer["ckpt.snapshots"])
		}
		if got[0] == 0 || got[0] != got[1] {
			t.Errorf("ckpt.snapshots %v", got)
		}
	})
}

// TestSoakFleetMatchesSingleProcess checks the fleet's findings report
// byte for byte against soak.Run of the same campaign in one process.
func TestSoakFleetMatchesSingleProcess(t *testing.T) {
	w := small(t, "soak-fleet", 9).(*soakFleet)
	u, err := w.unit(nil)
	if err != nil {
		t.Fatal(err)
	}
	if u.failed != 0 {
		t.Fatalf("%d of %d programs failed", u.failed, u.ops)
	}
	solo, err := soak.Run(w.last.Options(t.TempDir()), false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(solo)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.report, want) {
		t.Fatalf("fleet report differs\nfleet: %s\nsolo:  %s", w.report, want)
	}
	if solo.Runs == 0 {
		t.Fatal("the campaign ran nothing")
	}
}
