package tvq_test

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"testing"

	"tvq"
	"tvq/internal/objset"
)

// Result-lifetime regression harness for the PR4 "results valid until
// next call" contract at the public boundary: results returned by
// Session.Process and deliveries handed to sinks must be fully detached
// from engine internals — they stay intact while later frames are
// processed — and the engine must be equally detached from the caller:
// a producer may reuse its frame buffer for the next frame (the shape
// of every network ingest loop) without corrupting past or future
// results. Run under -race (CI does) this also exercises the pooled
// merge path's happens-before edges with a concurrent consumer.
//
// Besides the single engine and both pool shapes, the producer feeds a
// session opened WithDisorderBound a bounded shuffle of the trace: the
// reorder stage holds displaced frames across Process calls, so a
// buffered frame that still aliased the producer's buffer would be
// released poisoned.
//
// Matches of one state share one frame list (queries 1 and 4 have the
// same body, as have the subscribed 3 and 5), so the harness also pins
// what makes that sharing safe: the list is fresh per evaluation —
// held results stay intact, which a pooled list would not — and nobody
// downstream writes to it, so two fan-out taps may read one delivery's
// frames concurrently.
func TestSessionResultLifetime(t *testing.T) {
	tr := sessionTrace(t)
	queries := []tvq.Query{
		tvq.MustQuery(1, "car >= 1 AND person >= 2", 10, 5),
		tvq.MustQuery(2, "person >= 3", 25, 10),
		tvq.MustQuery(4, "car >= 1 AND person >= 2", 10, 5),
	}

	// Reference: immutable trace frames through a pristine session with
	// the same five queries (the hostile runs subscribe q3 and q5 as
	// well, and subscribed queries' matches appear in Process results
	// too).
	var want []string
	ref, err := tvq.Open(context.Background(), tvq.WithQueries(queries...))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{3, 5} {
		if _, err := ref.Subscribe(tvq.MustQuery(id, "car >= 1", 8, 4)); err != nil {
			t.Fatal(err)
		}
	}
	results, err := ref.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		for _, m := range r.Matches {
			want = append(want, shiftedKey(r.FID, m, 0))
		}
	}
	ref.Close()
	if len(want) == 0 {
		t.Fatal("reference run matched nothing; harness is vacuous")
	}

	// Pristine run of the subscribed query alone, for the sink check.
	sub, err := tvq.Open(context.Background(), tvq.WithQuery(tvq.MustQuery(3, "car >= 1", 8, 4)))
	if err != nil {
		t.Fatal(err)
	}
	subRes, err := sub.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	var wantSub []string
	for _, r := range subRes {
		for _, m := range r.Matches {
			wantSub = append(wantSub, shiftedKey(r.FID, m, 0))
		}
	}
	sub.Close()
	sort.Strings(wantSub)

	const bound = 4
	kinds := append(slices.Clip(sessionKinds), sessionKind{"disorder", []tvq.Option{tvq.WithDisorderBound(bound)}})
	for _, method := range []tvq.Method{tvq.MethodNaive, tvq.MethodMFS, tvq.MethodSSG} {
		for _, kind := range kinds {
			t.Run(fmt.Sprintf("%s/%s", method, kind.name), func(t *testing.T) {
				s, err := tvq.Open(context.Background(), append([]tvq.Option{
					tvq.WithQueries(queries...), tvq.WithMethod(method)}, kind.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()

				// A consumer goroutine holds every delivery until the end of
				// the run via a generously buffered ChanSink, rendering them
				// only after the whole feed has churned the engines.
				cs := tvq.NewChanSink(4096)
				if _, err := s.Subscribe(tvq.MustQuery(3, "car >= 1", 8, 4), tvq.WithSink(cs)); err != nil {
					t.Fatal(err)
				}
				heldDeliveries := make(chan []string, 1)
				go func() {
					var held []tvq.Delivery
					for d := range cs.C() {
						held = append(held, d)
					}
					var out []string
					for _, d := range held {
						out = append(out, shiftedKey(d.FID, d.Match, 0))
					}
					heldDeliveries <- out
				}()

				// Query 5, the twin of 3, fans out to two taps whose
				// consumers render every delivery the moment it arrives:
				// both read the same Match.Frames, concurrently with each
				// other and with the session still delivering.
				fan := tvq.NewFanoutSink()
				if _, err := s.Subscribe(tvq.MustQuery(5, "car >= 1", 8, 4), tvq.WithSink(fan)); err != nil {
					t.Fatal(err)
				}
				tapped := make(chan []string, 2)
				for range 2 {
					tap := fan.Tap(4096)
					go func() {
						var out []string
						for d := range tap.C() {
							d.Match.QueryID = 3 // compare with query 3's pristine run
							out = append(out, shiftedKey(d.FID, d.Match, 0))
						}
						if tap.Dropped() != 0 {
							out = nil
						}
						tapped <- out
					}()
				}

				// The producer decodes every frame into ONE reusable buffer,
				// hands the session a Frame aliasing it, and overwrites it
				// immediately after Process returns. Each frame lands at an
				// offset that moves with its id (mod 16, beyond any
				// displacement the bound allows), so an alias of an earlier
				// frame reads poison or another frame's ids, never its own,
				// even when neighbouring frames hold the same objects.
				frames := tr.Frames()
				if s.Disordered() {
					frames = tvq.BoundedShuffle(frames, bound, 1)
				}
				buf := make([]uint32, 16+64)
				shared := 0                        // twin matches seen sharing a frame list
				buffered := 0                      // most frames the reorder stage held at once
				var gotLive []string               // rendered as results arrive
				var heldResults [][]tvq.FeedResult // rendered after the run
				for _, f := range frames {
					off := f.FID % 16
					ids := f.Objects.AppendTo(buf[off:off])
					hostile := tvq.Frame{FID: f.FID, Objects: objset.FromSorted(ids), Classes: f.Classes}
					res, err := s.Process([]tvq.FeedFrame{{Frame: hostile}})
					if err != nil {
						t.Fatal(err)
					}
					heldResults = append(heldResults, res)
					for _, r := range res {
						for _, m := range r.Matches {
							gotLive = append(gotLive, shiftedKey(r.FID, m, 0))
						}
						shared += sharedFrameLists(t, r.Matches, 1, 4) + sharedFrameLists(t, r.Matches, 3, 5)
					}
					buffered = max(buffered, s.ReorderDepth())
					// Poison the shared buffer before the next frame reuses
					// it: anything aliasing it is now visibly corrupt.
					for j := range buf {
						buf[j] = 0xfeedface
					}
				}
				s.Close() // closes the sink; the consumer finishes

				var gotHeld []string
				for _, res := range heldResults {
					for _, r := range res {
						for _, m := range r.Matches {
							gotHeld = append(gotHeld, shiftedKey(r.FID, m, 0))
						}
					}
				}
				// Compare as sorted sets: pooled sessions may order different
				// queries' matches within one frame differently from a single
				// engine (documented); each key embeds its frame id, so the
				// sort canonicalizes without losing the frame association.
				liveSorted := append([]string(nil), gotLive...)
				wantSorted := append([]string(nil), want...)
				sort.Strings(liveSorted)
				sort.Strings(wantSorted)
				if fmt.Sprint(liveSorted) != fmt.Sprint(wantSorted) {
					t.Errorf("live results diverge from pristine run (%d vs %d matches): the engine retained the caller's frame buffer",
						len(gotLive), len(want))
				}
				if fmt.Sprint(gotHeld) != fmt.Sprint(gotLive) {
					t.Errorf("held results changed after later frames were processed: results alias engine state or a reused frame list")
				}
				if shared == 0 {
					t.Error("no twin matches seen: the sharing check is vacuous")
				}
				if s.Disordered() && buffered == 0 {
					t.Error("the reorder stage never held a frame: the disorder shape is vacuous")
				}

				delivered := <-heldDeliveries
				sort.Strings(delivered)
				if fmt.Sprint(delivered) != fmt.Sprint(wantSub) {
					t.Errorf("held sink deliveries diverge (%d vs %d): deliveries alias engine state",
						len(delivered), len(wantSub))
				}
				for range 2 {
					got := <-tapped
					sort.Strings(got)
					if fmt.Sprint(got) != fmt.Sprint(wantSub) {
						t.Errorf("tap deliveries diverge (%d vs %d)", len(got), len(wantSub))
					}
				}
			})
		}
	}
}

// sharedFrameLists checks that within one frame's matches every match
// of query a and the match of its twin b over the same object set hold
// the same frame list — one backing array, not two equal copies — and
// returns how many such pairs it saw.
func sharedFrameLists(t *testing.T, matches []tvq.Match, a, b int) int {
	t.Helper()
	pairs := 0
	for _, ma := range matches {
		if ma.QueryID != a {
			continue
		}
		for _, mb := range matches {
			if mb.QueryID != b || !mb.Objects.Equal(ma.Objects) {
				continue
			}
			pairs++
			if len(ma.Frames) == 0 || len(ma.Frames) != len(mb.Frames) || &ma.Frames[0] != &mb.Frames[0] {
				t.Errorf("queries %d and %d matched %v with separate frame lists %v and %v", a, b, ma.Objects, ma.Frames, mb.Frames)
			}
		}
	}
	return pairs
}
