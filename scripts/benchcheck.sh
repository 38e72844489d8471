#!/bin/sh
# benchcheck.sh — benchstat-style regression gate over two BENCH_<n>.json
# files (the artifacts scripts/bench.sh writes). Self-contained awk: the
# benchstat binary is not assumed to exist on CI runners.
#
# Usage:
#   scripts/benchcheck.sh <baseline.json> <candidate.json> [threshold_pct]
#
# Two gates, tuned to what each can measure reliably:
#
# 1. Cross-file: for every benchmark name present in both files the best
#    (minimum) ns_per_op of the samples is compared; min-of-N is robust
#    against a noisy neighbour inflating one sample. When both files carry
#    BenchmarkCalibrate (fixed pure-Go work, internal/vm/bench_test.go),
#    each file's rows are divided by its best calibration sample first,
#    so a file taken on a slower or busier host does not read as a
#    regression; otherwise raw ns/op are compared. The mode is printed.
#    Every delta is reported. The gate FAILS (exit 1) if a gated
#    benchmark — name containing "Dispatch", "CallNear", or
#    "CallFarTrampoline" — is slower than the baseline by more than
#    threshold_pct (default 20), or if a gated name present in one file is
#    MISSING from the other (a renamed or deleted gated benchmark must
#    fail loudly, not silently shrink the gate).
#
# 2. Within-candidate ratio: the stable-linking launch benchmarks are
#    gated against their cold counterparts measured in the SAME run, so
#    machine-speed differences between the committed baseline and the CI
#    runner cancel out. Table1_<class>Repeat (zygote clone) must come in
#    under 50% of Table1_<class> cold. If the warm path silently falls
#    back to a cold relink the ratio collapses to ~100% and the gate
#    fails — on any machine, at any load. Missing repeat names
#    fail too. LaunchByPath (load a saved executable, then the same zygote
#    launch) must stay under 160% of Table1_StaticPrivateRepeat, the
#    launch from an image in memory: with the decoded-image cache a load
#    is a fingerprint and a lookup; a load that reads and decodes the file
#    again adds ~7 us. Best-of-3 at 0.1s on a 2-vCPU host: 88-144% with
#    the cache (12 runs), 169-244% without it (10 runs). The limit sits
#    between the two ranges, nearer the uncached one, because the cached
#    ratio's spread is host noise (a hit costs ~0.5 us of a ~7 us launch).
#
# Only the result rows are compared; host metadata and go_loc are not.
#
# The interpreter fast path, the cross-segment call paths, and the
# stable-linking repeat-launch paths are the perf contracts this repo
# tracks hardest; the other macro benchmarks are reported for the record
# but are too system-noisy to gate merges on.
set -eu

base=${1:?usage: scripts/benchcheck.sh <baseline.json> <candidate.json> [threshold_pct]}
cand=${2:?usage: scripts/benchcheck.sh <baseline.json> <candidate.json> [threshold_pct]}
threshold=${3:-20}

awk -v threshold="$threshold" -v basefile="$base" -v candfile="$cand" '
  # Pull (name, ns_per_op) out of a bench.sh result row.
  function row(line, parts) {
    if (match(line, /"name": "[^"]*"/) == 0) return 0
    name = substr(line, RSTART + 9, RLENGTH - 10)
    if (match(line, /"ns_per_op": [0-9.eE+-]+/) == 0) return 0
    ns = substr(line, RSTART + 13, RLENGTH - 13) + 0
    return 1
  }
  # One within-candidate ratio check: warm must be under limit * cold.
  function ratio_gate(warm, cold, limit) {
    if (!(warm in c)) {
      printf "benchcheck: ratio-gated benchmark %s missing from %s\n", warm, candfile
      return 1
    }
    if (!(cold in c)) {
      printf "benchcheck: cold counterpart %s missing from %s\n", cold, candfile
      return 1
    }
    r = c[warm] / c[cold]
    mark = ""
    if (r > limit) { mark = "  << WARM PATH REGRESSION" }
    printf "%-34s %12.2f / %10.2f  =%5.0f%% (max %3.0f%%)%s\n", warm, c[warm], c[cold], r * 100, limit * 100, mark
    return mark != "" ? 1 : 0
  }
  FNR == 1 { file++ }
  # Host-core count of the candidate run: the SMP speed-up gate only
  # means something when the runner can actually execute 4 CPUs at once.
  file == 2 && match($0, /"host_cpus": [0-9]+/) {
    hostcpus = substr($0, RSTART + 13, RLENGTH - 13) + 0
  }
  {
    if (!row($0)) next
    if (file == 1) { if (!(name in b) || ns < b[name]) b[name] = ns }
    else           { if (!(name in c) || ns < c[name]) c[name] = ns }
    # Wire-byte metric of the candidate run, for the delta-efficiency gate
    # (bytes are deterministic in the simulated network: take the min).
    if (file == 2 && match($0, /"bytes_per_write": [0-9.eE+-]+/)) {
      bw = substr($0, RSTART + 19, RLENGTH - 19) + 0
      if (!(name in cb) || bw < cb[name]) cb[name] = bw
    }
  }
  END {
    gatepat = "Dispatch|CallNear|CallFarTrampoline"
    cal = "BenchmarkCalibrate"
    printf "benchcheck: %s (baseline) vs %s, gate: (%s) > +%d%%\n", basefile, candfile, gatepat, threshold
    if ((cal in b) && (cal in c)) {
      bcal = b[cal]; ccal = c[cal]
      printf "benchcheck: comparing ns/op / %s (%.2f ns in the baseline, %.2f ns in the candidate)\n", cal, bcal, ccal
    } else {
      bcal = 1; ccal = 1
      printf "benchcheck: comparing raw ns/op (%s is not in both files)\n", cal
    }
    printf "%-34s %12s %12s %8s\n", "name", "base ns/op", "new ns/op", "delta"
    fail = 0
    n = 0
    for (name in c) if (name in b) order[n++] = name
    # insertion sort for stable, readable output
    for (i = 1; i < n; i++) {
      k = order[i]
      for (j = i - 1; j >= 0 && order[j] > k; j--) order[j+1] = order[j]
      order[j+1] = k
    }
    for (i = 0; i < n; i++) {
      name = order[i]
      delta = (c[name] / ccal - b[name] / bcal) / (b[name] / bcal) * 100
      mark = ""
      if (name ~ gatepat && delta > threshold) { mark = "  << REGRESSION"; fail = 1 }
      printf "%-34s %12.2f %12.2f %+7.1f%%%s\n", name, b[name], c[name], delta, mark
    }
    # A gated benchmark present in one file but not the other means the
    # comparison above silently skipped it — fail instead of passing.
    for (name in b) if (name ~ gatepat && !(name in c)) {
      printf "benchcheck: gated benchmark %s missing from %s\n", name, candfile; fail = 1
    }
    for (name in c) if (name ~ gatepat && !(name in b)) {
      printf "benchcheck: gated benchmark %s missing from %s\n", name, basefile; fail = 1
    }
    if (n == 0) { print "benchcheck: no common benchmark names — nothing compared"; exit 1 }

    # Stable-linking launch gates: warm vs cold within the candidate run.
    printf "\nwarm-launch ratio gate (within %s)\n", candfile
    printf "%-34s %12s / %10s\n", "name", "warm ns/op", "cold ns/op"
    split("StaticPrivate DynamicPrivate StaticPublic DynamicPublic", classes, " ")
    for (i in classes) {
      cl = classes[i]
      fail += ratio_gate("BenchmarkTable1_" cl "Repeat", "BenchmarkTable1_" cl, 0.5)
    }
    fail += ratio_gate("BenchmarkLaunchByPath", "BenchmarkTable1_StaticPrivateRepeat", 1.6)

    # SMP speed-up gate: 4 scheduler CPUs must finish the parallel Presto
    # workload in at most half the 1-CPU time — but only on runners with
    # at least 4 host cores, where the comparison is physical. On smaller
    # hosts the numbers are still recorded, just not gated.
    printf "\nSMP speed-up gate (within %s, host_cpus=%d)\n", candfile, hostcpus
    if (hostcpus >= 4) {
      fail += ratio_gate("BenchmarkPrestoParallel4CPU", "BenchmarkPrestoParallel1CPU", 0.5)
    } else if ("BenchmarkPrestoParallel4CPU" in c && "BenchmarkPrestoParallel1CPU" in c) {
      printf "%-34s %12.2f / %10.2f  =%5.0f%% (informational: host has %d core(s))\n", \
        "BenchmarkPrestoParallel4CPU", c["BenchmarkPrestoParallel4CPU"], \
        c["BenchmarkPrestoParallel1CPU"], \
        c["BenchmarkPrestoParallel4CPU"] / c["BenchmarkPrestoParallel1CPU"] * 100, hostcpus
    } else {
      printf "benchcheck: PrestoParallel benchmarks missing from %s\n", candfile
      fail += 1
    }

    # Delta-efficiency gate: with dirty-byte delta encoding on, a small
    # write must put at most 25% of the full-page wire bytes on the wire,
    # measured within the candidate run so machine speed cancels out. If
    # the delta path silently falls back to full pages the ratio collapses
    # to ~100% and the gate fails.
    printf "\ndelta-efficiency gate (within %s)\n", candfile
    dn = "BenchmarkNetShmDeltaBytes/mode=delta"
    fn = "BenchmarkNetShmDeltaBytes/mode=full"
    if (!(dn in cb)) {
      printf "benchcheck: %s bytes_per_write missing from %s\n", dn, candfile; fail += 1
    } else if (!(fn in cb)) {
      printf "benchcheck: %s bytes_per_write missing from %s\n", fn, candfile; fail += 1
    } else {
      r = cb[dn] / cb[fn]
      mark = ""
      if (r > 0.25) { mark = "  << DELTA ENCODING REGRESSION"; fail += 1 }
      printf "%-34s %12.2f / %10.2f  =%5.0f%% (max  25%%)%s\n", \
        "NetShmDeltaBytes delta/full", cb[dn], cb[fn], r * 100, mark
    }

    if (fail) { print "benchcheck: FAIL — gated benchmark regressed or missing"; exit 1 }
    print "benchcheck: ok"
  }
' "$base" "$cand"
