#!/usr/bin/env bash
# Fails when a benchmark's median allocs/op or B/op over its counts
# rises above the merge base's by more than the benchmark's band.
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
  function median(key, n,   i, j, t, v) {
    n = cnt[key]
    for (i = 1; i <= n; i++) v[i] = val[key, i]
    for (i = 2; i <= n; i++)
      for (j = i; j > 1 && v[j-1] > v[j]; j--) { t = v[j]; v[j] = v[j-1]; v[j-1] = t }
    return n % 2 ? v[(n+1)/2] : (v[n/2] + v[n/2+1]) / 2
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
      b = median(1 SUBSEP u); h = median(2 SUBSEP u); n++
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
