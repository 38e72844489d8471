#!/bin/sh
# bench.sh — run the interpreter dispatch microbenchmark plus the paper
# benchmarks (Table 1, launch by path, call cost, pointer chase) and write
# BENCH_<n>.json.
#
# Usage:
#   scripts/bench.sh <n> [benchtime]
#
# Output:
#   BENCH_<n>.txt   raw `go test -bench` lines — feed two of these straight
#                   to benchstat to compare runs:
#                       benchstat BENCH_3.txt BENCH_4.txt
#   BENCH_<n>.json  the same rows parsed into {name, iterations, ns_per_op}
#                   plus host metadata and go_loc (non-test Go lines outside
#                   perfbench/, counted over the files git tracks), for
#                   dashboards and CHANGES archaeology.
#
# Run from the repository root. Keep benchmark NAMES stable across PRs —
# benchstat matches on name, so renaming a benchmark orphans its history.
set -eu

n=${1:?usage: scripts/bench.sh <n> [benchtime]}
benchtime=${2:-1s}

cd "$(dirname "$0")/.."

raw=BENCH_"$n".txt
out=BENCH_"$n".json

# Dispatch microbenchmark (internal/vm) with the host calibration
# benchmark beside it (scripts/benchcheck.sh divides by it), and the
# paper's macro benchmarks (repo root). -count=3 gives benchstat enough
# samples for a variance estimate without making CI runs painful.
{
  go test -run=NONE -bench='BenchmarkDispatch|BenchmarkCalibrate' -benchtime="$benchtime" -count=3 ./internal/vm/
  go test -run=NONE -bench='Table1|CallNear|CallFar|PointerChase|LaunchByPath|PrestoParallel|NetShmScale|NetShmDeltaBytes' -benchtime="$benchtime" -count=3 .
} | tee "$raw"

# Tracked files only, so build output such as .bench_build/ never counts.
go_loc=$(git ls-files '*.go' | grep -v -e '_test\.go$' -e '^perfbench/' | xargs cat | wc -l | tr -d ' ')

{
  printf '{\n'
  printf '  "bench_id": %s,\n' "$n"
  printf '  "goos": "%s",\n' "$(go env GOOS)"
  printf '  "goarch": "%s",\n' "$(go env GOARCH)"
  printf '  "go_version": "%s",\n' "$(go version | awk '{print $3}')"
  printf '  "commit": "%s",\n' "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
  printf '  "host_cpus": %s,\n' "$(nproc 2>/dev/null || echo 1)"
  printf '  "benchtime": "%s",\n' "$benchtime"
  printf '  "go_loc": %s,\n' "$go_loc"
  printf '  "results": [\n'
  awk '/^Benchmark/ {
    name=$1; iters=$2; ns=$3
    sub(/-[0-9]+$/, "", name)
    # Custom metrics (ReportMetric) follow ns/op in value/unit pairs; keep
    # the ones the netshm scaling curve and delta-efficiency gate read.
    extra=""
    for (i = 4; i < NF; i++) {
      if ($(i+1) == "bytes/write")      extra = extra sprintf(", \"bytes_per_write\": %s", $i)
      else if ($(i+1) == "ticks/write") extra = extra sprintf(", \"ticks_per_write\": %s", $i)
    }
    # The simulated-fleet order the row was measured at, for dashboards.
    if (match(name, /fleet=[0-9]+/))
      extra = extra sprintf(", \"fleet\": %s", substr(name, RSTART+6, RLENGTH-6))
    if (seen++) printf ",\n"
    printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s%s}", name, iters, ns, extra
  } END { printf "\n" }' "$raw"
  printf '  ]\n'
  printf '}\n'
} > "$out"

echo "wrote $raw and $out"
