package metrics

import (
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
)

// BuildInfo is the provenance stamp attached to /api/metrics and the
// pok-serve startup log, mirroring the BENCH_*.json provenance fields
// so dashboard snapshots archived from CI are attributable to a
// commit and toolchain.
type BuildInfo struct {
	GitSHA    string `json:"git_sha,omitempty"`
	GoVersion string `json:"go_version,omitempty"`
}

// DetectBuild resolves provenance at startup: the go toolchain version
// from the runtime, and the git SHA from the binary's embedded VCS
// stamp when present, else `git rev-parse --short HEAD` (empty outside
// a checkout — provenance is best-effort, never fatal).
func DetectBuild() BuildInfo {
	b := BuildInfo{GoVersion: runtime.Version()}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 7 {
				b.GitSHA = s.Value[:7]
			}
		}
	}
	if b.GitSHA == "" {
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			b.GitSHA = strings.TrimSpace(string(out))
		}
	}
	return b
}

// String renders the stamp for log lines ("abc1234 go1.22.1", or just
// the go version when no SHA is resolvable).
func (b BuildInfo) String() string {
	if b.GitSHA == "" {
		return b.GoVersion
	}
	return b.GitSHA + " " + b.GoVersion
}
