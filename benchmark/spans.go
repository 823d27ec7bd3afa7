package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"sync"
)

// span is one timed call into a layer, recorded by the benchmark around
// that call. Times are ns since the run started; Parent is the index of
// the span that caused this one, -1 for a root. Spans of one frame (or
// one batch) share Frame.
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Frame    int64  `json:"frame"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
}

// spanLog keeps spans in memory until the run ends. Pool workers and
// the stream reader add spans from their own goroutines.
type spanLog struct {
	mu       sync.Mutex
	workload string
	spans    []span
}

func (l *spanLog) add(name string, frame, start, end int64, parent int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{name, l.workload, frame, start, end, parent})
	return len(l.spans) - 1
}

func (l *spanLog) setEnd(i int, end int64) {
	l.mu.Lock()
	l.spans[i].End = end
	l.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its children cover. Children that overlap one another (pool
// workers running side by side) are counted once. Only spans whose
// frame is below limit count.
func (l *spanLog) selfTimes(limit int64) map[string]int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	kids := make(map[int][]int)
	for i, s := range l.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make(map[string]int64)
	for i, s := range l.spans {
		if s.Frame >= limit {
			continue
		}
		// Sweep the children in start order, counting only what lies
		// beyond the furthest end seen so far.
		slices.SortFunc(kids[i], func(a, b int) int { return cmp.Compare(l.spans[a].Start, l.spans[b].Start) })
		covered := int64(0)
		edge := s.Start
		for _, k := range kids[i] {
			c := l.spans[k]
			from, to := max(c.Start, edge), min(c.End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[s.Name] += (s.End - s.Start) - covered
	}
	return self
}

// total sums the durations of the spans called name below limit.
func (l *spanLog) total(name string, limit int64) (ns int64, n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.spans {
		if s.Name == name && s.Frame < limit {
			ns += s.End - s.Start
			n++
		}
	}
	return ns, n
}

// writeSpans writes every log as JSON lines, one span per line. A
// span's id is its line number from 0; parent refers to such an id.
func writeSpans(path string, logs []*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	base := 0
	for _, l := range logs {
		for i, s := range l.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			rec := struct {
				ID int `json:"id"`
				span
			}{base + i, s}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return err
			}
		}
		base += len(l.spans)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
