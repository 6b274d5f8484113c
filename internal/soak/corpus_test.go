package soak

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"pok/internal/check/inject"
	"pok/internal/metrics"
)

// corpusGoldenFile pins two fixed generated-program campaigns: the
// digest of each one's final metrics snapshot (cycle-exact CPI stacks
// and telemetry of generated programs, which the core Result table
// does not cover) and of its findings.
const corpusGoldenFile = "testdata/corpus_golden.json"

// corpusDigests is one campaign's entry in the golden file.
type corpusDigests struct {
	Snapshot string `json:"snapshot"`
	Findings string `json:"findings"`
}

// corpusCampaigns returns the pinned campaigns. Both run the event
// scheduler alone, so the pin does not depend on the scheduler axis.
func corpusCampaigns(t *testing.T) map[string]Options {
	base := Options{
		BaseSeed:   2003,
		Programs:   8,
		Configs:    []string{"simple4", "slice2", "slice4"},
		Schedulers: []string{"event"},
	}
	clean := base
	clean.InjectSeeds = 1
	clean.OutDir = t.TempDir()
	corrupt := base
	corrupt.Programs = 4
	corrupt.Hook = &inject.Options{CorruptOn: true, CorruptAt: 20}
	corrupt.NoReduce = true
	corrupt.OutDir = t.TempDir()
	return map[string]Options{"clean": clean, "corrupt": corrupt}
}

// corpusDigest runs one campaign and hashes its final snapshot with
// the wall clock zeroed, and its findings with the scheduler and the
// bundle path blanked.
func corpusDigest(t *testing.T, opts Options) corpusDigests {
	t.Helper()
	var last *metrics.Snapshot
	opts.Snapshot = func(_ int, snap *metrics.Snapshot) { last = snap }
	rep, err := Run(opts, false)
	if err != nil {
		t.Fatal(err)
	}
	if last == nil {
		t.Fatal("snapshot hook never fired")
	}
	last.WallNanos = 0
	findings := append([]Finding{}, rep.Findings...)
	for i := range findings {
		findings[i].Scheduler, findings[i].Bundle = "", ""
	}
	return corpusDigests{Snapshot: sha(t, last), Findings: sha(t, findings)}
}

func sha(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestCorpusGolden checks both pinned campaigns against
// testdata/corpus_golden.json.
func TestCorpusGolden(t *testing.T) {
	b, err := os.ReadFile(corpusGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]corpusDigests
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", corpusGoldenFile, err)
	}
	got := map[string]corpusDigests{}
	for name, opts := range corpusCampaigns(t) {
		got[name] = corpusDigest(t, opts)
	}
	if !reflect.DeepEqual(got, want) {
		blob, _ := json.MarshalIndent(got, "", "  ")
		t.Fatalf("corpus digests differ from %s; computed:\n%s", corpusGoldenFile, blob)
	}
}
