package main

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime/metrics"
)

// debugHandler serves the -debug-addr listener: the net/http/pprof
// handlers under /debug/pprof/ and every runtime/metrics value as text
// at /debug/metrics, on a mux of its own.
func debugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/metrics", writeRuntimeMetrics)
	return mux
}

// writeRuntimeMetrics writes one line per runtime metric, "name value";
// a histogram is written as its sample count and the upper bounds of
// the buckets holding its median and 99th percentile.
func writeRuntimeMetrics(w http.ResponseWriter, _ *http.Request) {
	descs := metrics.All()
	samples := make([]metrics.Sample, len(descs))
	for i := range samples {
		samples[i].Name = descs[i].Name
	}
	metrics.Read(samples)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			fmt.Fprintf(w, "%s %d\n", s.Name, s.Value.Uint64())
		case metrics.KindFloat64:
			fmt.Fprintf(w, "%s %g\n", s.Name, s.Value.Float64())
		case metrics.KindFloat64Histogram:
			h := s.Value.Float64Histogram()
			var n uint64
			for _, c := range h.Counts {
				n += c
			}
			fmt.Fprintf(w, "%s count=%d p50<=%g p99<=%g\n", s.Name, n, quantileBound(h, n, 0.5), quantileBound(h, n, 0.99))
		}
	}
}

// quantileBound returns the upper bound of the bucket that holds the
// q-quantile of h's n samples, 0 when it has none.
func quantileBound(h *metrics.Float64Histogram, n uint64, q float64) float64 {
	if n == 0 {
		return 0
	}
	rank := uint64(q * float64(n))
	var seen uint64
	for i, c := range h.Counts {
		if seen += c; seen > rank {
			return h.Buckets[i+1]
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}
