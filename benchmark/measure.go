package main

import (
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"slices"
	"time"
)

// metric is one reported number. A metric built from several timed
// passes carries the quartiles and the pass count it was taken over.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
	Q1     float64 `json:"q1,omitempty"`
	Q3     float64 `json:"q3,omitempty"`
	N      int     `json:"n,omitempty"`
	Better string  `json:"better,omitempty"`
}

// summary reduces one value per pass to median and quartiles.
func summary(name, unit string, perPass []float64) metric {
	s := slices.Sorted(slices.Values(perPass))
	return metric{Name: name, Unit: unit, Value: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// quantile interpolates linearly in a sorted sample; q in [0, 1].
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// percentileNS returns the q-quantile of a latency sample in ns.
func percentileNS(sample []int64, q float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	sorted := slices.Sorted(slices.Values(sample))
	return float64(sorted[min(int(q*float64(len(sorted))), len(sorted)-1)])
}

func median(v []float64) float64 { return quantile(slices.Sorted(slices.Values(v)), 0.5) }

func medianNS(sample []int64) float64 { return percentileNS(sample, 0.5) }

// steadyNS is how long one pass takes once interference from outside
// the process is filtered out. Every pass does the same work in the
// same order, so the passes' samples (ns per frame or per batch) line
// up; they are cut into twenty stretches, each stretch counts with its
// median over the passes, and so does what a pass spent outside its
// samples. A neighbour that steals the processor for a fraction of a
// second slows one stretch of one pass and drops out; garbage
// collection, which visits every stretch of every pass, stays in.
func steadyNS(passes []*passStats) float64 {
	n := len(passes[0].rateSamples)
	for _, st := range passes {
		n = min(n, len(st.rateSamples))
	}
	per := make([]float64, len(passes))
	rest := make([]float64, len(passes))
	for p, st := range passes {
		rest[p] = float64(st.rateNS)
	}
	var total float64
	for s, stretches := 0, min(n, 20); s < stretches; s++ {
		for p, st := range passes {
			per[p] = 0
			for _, v := range st.rateSamples[s*n/stretches : (s+1)*n/stretches] {
				per[p] += float64(v)
			}
			rest[p] -= per[p]
		}
		total += median(per)
	}
	return total + median(rest)
}

// ratio is a/b, or 0 when b is 0: a layer that did no work on a
// workload reports 0 rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// memMark is a reading of the allocator's cumulative counters.
type memMark struct{ mallocs, bytes uint64 }

func readMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{ms.Mallocs, ms.TotalAlloc}
}

func (m memMark) since(start memMark) memMark {
	return memMark{m.mallocs - start.mallocs, m.bytes - start.bytes}
}

// liveHeapMB forces a collection and reports what survives it.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// outDigest fingerprints an output stream cheaply enough to sit in a
// timed pass: CRC-32C, byte count and write count. JSON encoders issue
// one Write per line, so writes counts lines.
type outDigest struct {
	crc    uint32
	bytes  int64
	writes int64
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (d *outDigest) Write(p []byte) (int, error) {
	d.crc = crc32.Update(d.crc, castagnoli, p)
	d.bytes += int64(len(p))
	d.writes++
	return len(p), nil
}

func (d *outDigest) reset() { *d = outDigest{} }

func (d outDigest) String() string {
	return fmt.Sprintf("crc32c:%08x/%dB/%dL", d.crc, d.bytes, d.writes)
}

// clock is the run's time base: spans and latency samples are ns since
// the run started.
type clock struct{ t0 time.Time }

func (c clock) now() int64 { return int64(time.Since(c.t0)) }
