#!/usr/bin/env bash
# Fails when a benchmark's lowest allocs/op or B/op over its counts
# rises above the merge base's by more than the benchmark's band. The
# lowest, not the median: a count's noise is allocation outside the
# measured code, which only adds to it, so a noisy run on either side
# cannot move the lowest of N, where a median moves once half the runs
# are noisy.
#
#   count-gate.sh BASE.txt HEAD.txt [ANNOUNCED.txt]
#
# BASE.txt and HEAD.txt are `go test -bench -benchmem -count=N` output.
# ANNOUNCED.txt holds the lines a change adds to CHANGES.md; a
# benchmark they announce with "raises BenchmarkName" (the top-level
# name, backquoted or not) may rise, and is reported instead of failed. Bands: 0.5% for in-process
# benchmarks, and a rise of one allocation always passes; the served
# ones carry an HTTP server, a client and goroutine scheduling, whose
# counts vary from run to run (the bench-regression job in
# .github/workflows/ci.yml gives the measured spread).
set -euo pipefail
base=$1 head=$2 announced=${3:-/dev/null}
awk '
  function band(name, unit) {
    if (name ~ /^BenchmarkServedIngest/) return unit == "B/op" ? 0.01 : 0.005
    if (name ~ /^BenchmarkDaemonIngest/) return unit == "B/op" ? 0.25 : 0.01
    return 0.005
  }
  function lowest(key,   i, m) {
    m = val[key, 1] + 0
    for (i = 2; i <= cnt[key]; i++) if (val[key, i] + 0 < m) m = val[key, i] + 0
    return m
  }
  FILENAME == ARGV[1] { ann = ann " " $0; next }
  FNR == 1 { side++ }
  $1 ~ /^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    for (i = 3; i < NF; i++)
      if ($(i+1) == "allocs/op" || $(i+1) == "B/op") {
        key = side SUBSEP name SUBSEP $(i+1)
        val[key, ++cnt[key]] = $i
        if (side == 2) units[name SUBSEP $(i+1)] = 1
      }
  }
  END {
    fail = 0; n = 0
    for (u in units) {
      split(u, p, SUBSEP); name = p[1]; unit = p[2]
      if (!((1 SUBSEP u) in cnt)) continue
      b = lowest(1 SUBSEP u); h = lowest(2 SUBSEP u); n++
      r = b > 0 ? h / b - 1 : (h > 0 ? 1 : 0)
      top = name; sub(/\/.*/, "", top)
      verdict = "ok"
      if (r > band(name, unit) && !(unit == "allocs/op" && h - b <= 1)) {
        if (ann ~ ("raises `?" top "([^A-Za-z0-9_]|$)")) verdict = "raised, announced in CHANGES.md"
        else { verdict = "FAIL"; fail = 1 }
      }
      printf "%-60s %-9s %12.0f -> %12.0f %+7.2f%% (band %.1f%%) %s\n", name, unit, b, h, 100 * r, 100 * band(name, unit), verdict
    }
    if (n == 0) { print "no benchmark reports allocs/op or B/op on both sides"; exit 1 }
    if (fail) { print "FAIL: a count rose beyond its band; write \"raises BenchmarkName\" in CHANGES.md if that is intended"; exit 1 }
  }' "$announced" "$base" "$head"
