#!/usr/bin/env bash
# The benchmark record: perfbench runs summarised into one BENCH_PR<n>.json,
# and the gate that compares two such records.
#
#   bash scripts/bench_record.sh record BENCH_PR23.json
#   bash scripts/bench_record.sh gate BENCH_PR22.json BENCH_PR23.json
#
# record runs `bash perfbench/run.sh` on every workload BENCHMARK.json
# lists, for its run_seconds: UNTRACED untraced runs (the end-to-end
# metrics) and TRACED traced runs (the per-layer metrics), seeds 1, 2, ...
# It writes the median, q1, q3, n and unit of every metric over those
# runs, each run's correct/attempted/failed and box.probe_ms, and the
# provenance: nproc, go version and the measured commit with a dirty
# flag. Each run's standard error is kept under .bench_build/record/.
#
# gate compares the new record's end-to-end medians against the
# baseline's. A metric regresses when it moves the wrong way (its
# BENCHMARK.json `better`) by more than its `bound`: new/old above
# 1+bound for lower-is-better, below 1-bound for higher-is-better. It
# exits 1 on any regression, on a gated metric missing from the new
# record, or on any new run that is not correct. A different nproc, or
# box.probe_ms medians further apart than the wall_s bound, only warns:
# the records then come from different machines or machine states.
set -euo pipefail
cd "$(dirname "$0")/.."

# Runs per workload. Quartiles need a few samples; each run takes about
# run_seconds plus its set-up, so a record takes about a quarter hour.
UNTRACED=5
TRACED=3

# quantile: the $p-quantile of an array, by linear interpolation between
# closest ranks (perfbench's own definition).
JQ_DEFS='
def quantile($p):
  sort as $s | ($s | length) as $n
  | (($n - 1) * $p) as $pos | ($pos | floor) as $lo | ($pos | ceil) as $hi
  | $s[$lo] + ($s[$hi] - $s[$lo]) * ($pos - $lo);
'

usage() {
  echo "usage: $0 record OUT.json | gate BASELINE.json NEW.json" >&2
  exit 2
}

record() {
  local out=$1
  local logs=.bench_build/record
  local seconds runs sha dirty=false
  seconds=$(jq -r .run_seconds BENCHMARK.json)
  sha=$(git rev-parse HEAD)
  [ -z "$(git status --porcelain --untracked-files=no)" ] || dirty=true
  rm -rf "$logs"
  mkdir -p "$logs"
  runs="$logs/runs.jsonl"
  : >"$runs"
  local w trace n seed log line
  for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
    for trace in 0 1; do
      n=$UNTRACED
      [ "$trace" = 1 ] && n=$TRACED
      for seed in $(seq "$n"); do
        log="$logs/$w-trace$trace-seed$seed.log"
        echo "bench-record: $w trace=$trace seed=$seed" >&2
        if ! bash perfbench/run.sh --workload "$w" --seed "$seed" \
          --seconds "$seconds" --trace "$trace" >"$log.out" 2>"$log"; then
          echo "bench-record: run failed, see $log" >&2
          exit 1
        fi
        line=$(tail -n 1 "$log.out")
        jq -c --arg w "$w" --argjson seed "$seed" --argjson trace "$trace" \
          '{workload: $w, seed: $seed, trace: $trace} + .' <<<"$line" >>"$runs"
      done
    done
  done

  jq -n --slurpfile runs "$runs" --slurpfile bench BENCHMARK.json \
    --arg sha "$sha" --argjson dirty "$dirty" \
    --arg go "$(go version)" --argjson nproc "$(nproc)" \
    --arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    --argjson untraced "$UNTRACED" --argjson traced "$TRACED" "$JQ_DEFS"'
    $bench[0] as $b
    | {
        date: $date,
        commit: {sha: $sha, dirty: $dirty},
        go_version: $go,
        nproc: $nproc,
        run_seconds: $b.run_seconds,
        runs_per_workload: {untraced: $untraced, traced: $traced},
        workloads: [$b.workloads[].name as $w
          | ($runs | map(select(.workload == $w))) as $rs
          | {key: $w, value: {
              runs: [$rs[] | {seed, trace, correct, attempted, failed,
                              box_probe_ms: .metrics["box.probe_ms"].value}],
              metrics: [($b.end_to_end + $b.per_layer)[] as $m
                | [$rs[] | .metrics[$m.name].value | select(. != null)] as $xs
                | select($xs | length > 0)
                | {key: $m.name, value: {
                    median: ($xs | quantile(0.5)),
                    q1: ($xs | quantile(0.25)),
                    q3: ($xs | quantile(0.75)),
                    n: ($xs | length),
                    unit: $m.unit}}]
                | from_entries}}]
          | from_entries
      }' >"$out"
  echo "bench-record: wrote $out" >&2
}

gate() {
  local base=$1 new=$2 report
  report=$(jq -n -r --slurpfile base "$base" --slurpfile new "$new" \
    --slurpfile bench BENCHMARK.json '
    def r3: . * 1000 | round / 1000;
    $bench[0] as $b | $base[0] as $o | $new[0] as $n
    | ($b.end_to_end[] | select(.name == "wall_s") | .bound) as $probeBound
    | [
        ($b.workloads[].name as $w | $b.end_to_end[] as $m
          | $o.workloads[$w].metrics[$m.name].median as $old
          | $n.workloads[$w].metrics[$m.name].median as $cur
          | if $old == null then
              {line: "\($w) \($m.name): not in the baseline, not gated", bad: false}
            elif $cur == null then
              {line: "\($w) \($m.name): MISSING from the new record", bad: true}
            else
              (if $old == 0 then 1 else $cur / $old end) as $r
              | (if $m.better == "lower" then $r > 1 + $m.bound
                 else $r < 1 - $m.bound end) as $bad
              | {line: "\($w) \($m.name): \($old | r3) -> \($cur | r3) \($m.unit) (x\($r | r3), bound \($m.bound), \($m.better) is better)\(if $bad then " REGRESSED" else "" end)",
                 bad: $bad}
            end),
        ($n.workloads | to_entries[] | .key as $w | .value.runs[]
          | select(.correct != true)
          | {line: "\($w) seed \(.seed) trace \(.trace): NOT CORRECT (\(.failed) of \(.attempted) failed)", bad: true}),
        (select($o.nproc != $n.nproc)
          | {line: "WARNING: nproc differs (baseline \($o.nproc), new \($n.nproc)): timings are not comparable", bad: false}),
        ($b.workloads[].name as $w
          | $o.workloads[$w].metrics["box.probe_ms"].median as $po
          | $n.workloads[$w].metrics["box.probe_ms"].median as $pn
          | select($po != null and $pn != null and $po > 0)
          | select(($pn / $po - 1) as $d | [$d, -$d] | max > $probeBound)
          | {line: "WARNING: \($w) box.probe_ms differs (baseline \($po), new \($pn)): the machine differs", bad: false})
      ]
    | (.[].line),
      (if any(.[]; .bad) then "RESULT: regression" else "RESULT: no regression beyond the bounds" end)
  ')
  echo "$report"
  [ "$(tail -n 1 <<<"$report")" = "RESULT: no regression beyond the bounds" ]
}

case "${1:-}" in
record) [ $# -eq 2 ] || usage; record "$2" ;;
gate) [ $# -eq 3 ] || usage; gate "$2" "$3" ;;
*) usage ;;
esac
