package core

import (
	"bytes"
	"fmt"
	"testing"

	"pok/internal/emu"
	"pok/internal/telemetry"
	"pok/internal/workload"
)

// The telemetry layer's correctness contract has two halves:
//
//  1. The structured event stream is part of the machine's observable
//     behavior, so the event-driven and legacy schedulers — already held
//     to identical Result structs — must also emit byte-identical JSONL
//     event dumps (TestTelemetryGoldenAcrossSchedulers).
//  2. Telemetry is pure observation: attaching a Recorder must not
//     perturb timing, and running without one must leave Result
//     bit-identical (TestTelemetryNilCollectorIdentity).

// runRecorded runs one benchmark under cfg with a fresh Recorder
// attached and returns the result plus the recorder.
func runRecorded(t *testing.T, bench string, cfg Config, insts uint64) (*Result, *telemetry.Recorder) {
	t.Helper()
	w := workload.MustGet(bench)
	prog, err := w.Program(w.DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	rec := cfg.NewRecorder(0)
	cfg.Collector = rec
	r, err := RunWarm(prog, cfg, w.FastForward, insts)
	if err != nil {
		t.Fatal(err)
	}
	return r, rec
}

// dumpJSONL renders a recorder's event stream as its JSONL wire form.
func dumpJSONL(t *testing.T, rec *telemetry.Recorder) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := telemetry.WriteJSONL(&b, rec.Events()); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestTelemetryGoldenAcrossSchedulers runs tiny workloads under both
// schedulers and requires the full event streams to be byte-identical —
// the strongest cycle-exactness statement the repo makes, covering not
// just end-of-run counters but the order of every issue, replay,
// memory access, resolution, commit and squash.
func TestTelemetryGoldenAcrossSchedulers(t *testing.T) {
	const insts = 20_000
	cases := []struct {
		bench string
		cfg   Config
	}{
		{"gzip", BitSliced(2)},
		{"mcf", BitSliced(4)},
		{"gcc", func() Config {
			c := BitSliced(4)
			c.WrongPath = true // squash + wrong-path fetch events
			c.UseDTLB = true
			return c
		}()},
		{"twolf", BaseConfig()},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s/%s", tc.bench, tc.cfg.Name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			legacy := tc.cfg
			legacy.LegacyScheduler = true
			_, lrec := runRecorded(t, tc.bench, legacy, insts)
			event := tc.cfg
			event.LegacyScheduler = false
			_, erec := runRecorded(t, tc.bench, event, insts)

			ld, ed := dumpJSONL(t, lrec), dumpJSONL(t, erec)
			if bytes.Equal(ld, ed) {
				return
			}
			// Locate the first diverging event for the failure message.
			le, ee := lrec.Events(), erec.Events()
			n := len(le)
			if len(ee) < n {
				n = len(ee)
			}
			for i := 0; i < n; i++ {
				if le[i] != ee[i] {
					t.Fatalf("%s: event %d diverges\nlegacy: %+v\nevent:  %+v",
						name, i, le[i], ee[i])
				}
			}
			t.Fatalf("%s: stream lengths diverge: legacy=%d event=%d",
				name, len(le), len(ee))
		})
	}
}

// TestTelemetryNilCollectorIdentity proves telemetry is observation
// only: the Result of an instrumented run equals the uninstrumented
// Result bit-for-bit once the Telemetry summary pointer is cleared.
func TestTelemetryNilCollectorIdentity(t *testing.T) {
	const insts = 20_000
	for _, slices := range []int{2, 4} {
		cfg := BitSliced(slices)
		w := workload.MustGet("gzip")
		prog, err := w.Program(w.DefaultScale)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := RunWarm(prog, cfg, w.FastForward, insts)
		if err != nil {
			t.Fatal(err)
		}
		recorded, rec := runRecorded(t, "gzip", cfg, insts)
		if recorded.Telemetry == nil {
			t.Fatalf("x%d: instrumented run did not fold a Summary into Result", slices)
		}
		clone := *recorded
		clone.Telemetry = nil
		if clone != *plain {
			t.Errorf("x%d: telemetry perturbed the run\nwith:\n%s\nwithout:\n%s",
				slices, recorded.Summary(), plain.Summary())
		}
		// Cross-check the summary against the run's own counters.
		sum := rec.Summary()
		if sum.CyclesSampled != uint64(plain.Cycles) {
			t.Errorf("x%d: sampled %d cycles, simulated %d", slices, sum.CyclesSampled, plain.Cycles)
		}
		if got := sum.Events[telemetry.EvCommit.String()]; got != plain.Insts {
			t.Errorf("x%d: %d commit events, %d committed insts", slices, got, plain.Insts)
		}
		if got := sum.Events[telemetry.EvReplay.String()]; got != plain.Replays {
			t.Errorf("x%d: %d replay events, %d replays", slices, got, plain.Replays)
		}
		if got := sum.ResolvesEarly; got != plain.EarlyResolved {
			t.Errorf("x%d: %d early-resolve events, %d early resolved", slices, got, plain.EarlyResolved)
		}
	}
}

// TestTelemetrySampledRun: sampled windows share Run's finalization, so
// a Collector attached to RunSampled folds its Summary into the Result
// without perturbing any other field.
func TestTelemetrySampledRun(t *testing.T) {
	w := workload.MustGet("gzip")
	prog := func() *emu.Program {
		p, err := w.Program(w.DefaultScale)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cfg := BitSliced(2)
	plain, err := RunSampled(prog(), cfg, w.FastForward, 2_000, 3_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Collector = cfg.NewRecorder(0)
	recorded, err := RunSampled(prog(), cfg, w.FastForward, 2_000, 3_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if recorded.Telemetry == nil {
		t.Fatal("sampled run with a Collector carries no Summary")
	}
	if got := recorded.Telemetry.Events[telemetry.EvCommit.String()]; got != plain.Insts {
		t.Errorf("%d commit events, %d sampled insts", got, plain.Insts)
	}
	clone := *recorded
	clone.Telemetry = nil
	if clone != *plain {
		t.Errorf("telemetry perturbed the sampled run\nwith:\n%s\nwithout:\n%s",
			recorded.Summary(), plain.Summary())
	}
}

// TestTelemetryJSONLRoundTrip pushes a real event stream through the
// JSONL encoder and decoder and requires an exact structural round
// trip.
func TestTelemetryJSONLRoundTrip(t *testing.T) {
	_, rec := runRecorded(t, "gzip", BitSliced(2), 5_000)
	events := rec.Events()
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	var b bytes.Buffer
	if err := telemetry.WriteJSONL(&b, events); err != nil {
		t.Fatal(err)
	}
	back, err := telemetry.ReadJSONL(&b)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) {
		t.Fatalf("round trip: %d events in, %d out", len(events), len(back))
	}
	for i := range events {
		if events[i] != back[i] {
			t.Fatalf("round trip: event %d: %+v != %+v", i, events[i], back[i])
		}
	}
}
