package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"tvq/internal/cnf"
	"tvq/internal/vr"
)

// Property round-trip tests: serializing state through any of the
// system's codecs — trace → CSV/JSONL → trace, engine → snapshot →
// engine — must preserve the match stream exactly. The random workloads
// reuse the differential harness generator, so the edge shapes it leans
// on (empty frames, repeated frames, bursts) flow through the codecs
// too; empty traces and single-frame windows get explicit subtests
// because they are exactly the cases a length-off-by-one would break.

// TestMatchesSurviveCodecRoundTrip writes random traces through both
// wire codecs, reads them back, and requires every method to emit the
// same match stream on the round-tripped trace as on the original.
func TestMatchesSurviveCodecRoundTrip(t *testing.T) {
	for i := 0; i < 10; i++ {
		seed := int64(7000 + i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tr := randomDiffTrace(rng)
			qs := randomDiffQueries(rng, 14)
			reg := vr.StandardRegistry()

			var jsonl bytes.Buffer
			if err := vr.JSONL.WriteTrace(&jsonl, tr, reg); err != nil {
				t.Fatal(err)
			}
			fromJSONL, err := vr.JSONL.ReadTrace(&jsonl, vr.StandardRegistry())
			if err != nil {
				t.Fatal(err)
			}
			if fromJSONL.Len() != tr.Len() {
				t.Fatalf("jsonl round trip changed length: %d -> %d", tr.Len(), fromJSONL.Len())
			}

			var csv bytes.Buffer
			if err := vr.WriteCSV(&csv, tr, reg); err != nil {
				t.Fatal(err)
			}
			fromCSV, err := vr.ReadCSV(&csv, vr.StandardRegistry())
			if err != nil {
				t.Fatal(err)
			}
			// CSV has no representation for trailing empty frames, so the
			// decoded trace may be a prefix; the property holds against the
			// same-length prefix of the original.
			if fromCSV.Len() > tr.Len() {
				t.Fatalf("csv round trip grew the trace: %d -> %d", tr.Len(), fromCSV.Len())
			}

			for _, method := range []Method{MethodNaive, MethodMFS, MethodSSG} {
				opts := Options{Method: method}
				want := diffRun(t, tr, qs, opts)
				if got := diffRun(t, fromJSONL, qs, opts); !equalStrings(got, want) {
					t.Errorf("%s: jsonl round trip changed matches: %s", method, firstDiff(got, want))
				}
				wantCSV := diffRun(t, tr.Prefix(fromCSV.Len()), qs, opts)
				if got := diffRun(t, fromCSV, qs, opts); !equalStrings(got, wantCSV) {
					t.Errorf("%s: csv round trip changed matches: %s", method, firstDiff(got, wantCSV))
				}
			}
		})
	}
}

// TestEmptyTraceRoundTrips pushes a zero-frame trace through both wire
// codecs and through the snapshot codec: every round trip must yield a
// working engine and an empty match stream.
func TestEmptyTraceRoundTrips(t *testing.T) {
	empty := vr.NewTraceFromFrames(nil, nil)
	if empty.Len() != 0 {
		t.Fatalf("empty trace has %d frames", empty.Len())
	}
	reg := vr.StandardRegistry()

	var jsonl bytes.Buffer
	if err := vr.JSONL.WriteTrace(&jsonl, empty, reg); err != nil {
		t.Fatal(err)
	}
	back, err := vr.JSONL.ReadTrace(&jsonl, reg)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 0 {
		t.Fatalf("jsonl round trip invented %d frames", back.Len())
	}

	var csv bytes.Buffer
	if err := vr.WriteCSV(&csv, empty, reg); err != nil {
		t.Fatal(err)
	}
	back, err = vr.ReadCSV(&csv, reg)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 0 {
		t.Fatalf("csv round trip invented %d frames", back.Len())
	}

	// Snapshotting an engine that has processed an empty trace (i.e.
	// nothing) must restore to a fresh, fully usable engine.
	qs := []cnf.Query{mkQuery(t, 1, "person >= 1", 10, 4)}
	for _, method := range []Method{MethodNaive, MethodMFS, MethodSSG} {
		eng, err := New(qs, Options{Method: method})
		if err != nil {
			t.Fatal(err)
		}
		restored := snapshotRoundTrip(t, eng)
		if restored.NextFID(0) != 0 {
			t.Fatalf("%s: restored empty engine at frame %d", method, restored.NextFID(0))
		}
		tr := smallTrace(t, 77)
		want := flatRun(t, tr, qs, Options{Method: method})
		var got []string
		for _, f := range tr.Frames() {
			for _, m := range restored.ProcessFrame(f) {
				got = append(got, fmt.Sprintf("%d:%s", f.FID, matchKey(m)))
			}
		}
		if !equalStrings(got, want) {
			t.Fatalf("%s: engine restored from empty state diverged: %s", method, firstDiff(got, want))
		}
	}
}

// TestSingleFrameWindowRoundTrips runs a window-1/duration-1 query —
// the degenerate window where every frame is its own evaluation unit —
// through kill-and-resume at every cut point, for each method and both
// window modes.
func TestSingleFrameWindowRoundTrips(t *testing.T) {
	tr := smallTrace(t, 13)
	qs := []cnf.Query{mkQuery(t, 1, "person >= 1 AND car >= 1", 1, 1)}
	for _, method := range []Method{MethodNaive, MethodMFS, MethodSSG} {
		for _, wm := range []WindowMode{Sliding, Tumbling} {
			opts := Options{Method: method, Windows: wm}
			want := flatRun(t, tr, qs, opts)
			if len(want) == 0 {
				t.Fatal("single-frame workload produced no matches; test is vacuous")
			}
			for cut := 0; cut < tr.Len(); cut += 17 {
				eng, err := New(qs, opts)
				if err != nil {
					t.Fatal(err)
				}
				var got []string
				for _, f := range tr.Frames()[:cut] {
					for _, m := range eng.ProcessFrame(f) {
						got = append(got, fmt.Sprintf("%d:%s", f.FID, matchKey(m)))
					}
				}
				restored := snapshotRoundTrip(t, eng)
				for _, f := range tr.Frames()[cut:] {
					for _, m := range restored.ProcessFrame(f) {
						got = append(got, fmt.Sprintf("%d:%s", f.FID, matchKey(m)))
					}
				}
				if !equalStrings(got, want) {
					t.Fatalf("%v/%v cut %d: single-frame window resume diverged: %s",
						method, wm, cut, firstDiff(got, want))
				}
			}
		}
	}
}
