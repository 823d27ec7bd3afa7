package core

import (
	"math/rand"
	"testing"

	"tvq/internal/objset"
	"tvq/internal/vr"
)

// flickerFeed builds a temporally coherent feed, the shape real video
// has and the i.i.d. feeds of randomFeed never produce: objects enter,
// persist, drop out for a few frames (a missed detection) and return;
// now and then nothing changes for a stretch of frames, and now and then
// the detector sees nothing at all for a frame or two. Most frames
// therefore bring no object their predecessor lacked, which is the case
// SSG's traversal on the frame's change treats separately from the rest.
func flickerFeed(r *rand.Rand, nframes, alphabet int) []vr.Frame {
	present := make([]bool, alphabet)
	hidden := make([]int, alphabet) // frames until a dropped-out object returns
	frames := make([]vr.Frame, nframes)
	freeze, blackout := 0, 0
	for i := range frames {
		switch {
		case freeze > 0:
			freeze--
		case r.Intn(12) == 0:
			freeze = 2 + r.Intn(10)
		default:
			for id := range present {
				switch {
				case hidden[id] > 0:
					hidden[id]--
				case !present[id]:
					present[id] = r.Intn(8) == 0
				case r.Intn(20) == 0:
					present[id] = false
				case r.Intn(10) == 0:
					hidden[id] = 1 + r.Intn(3)
				}
			}
		}
		if blackout == 0 && r.Intn(30) == 0 {
			blackout = 1 + r.Intn(2)
		}
		var ids []objset.ID
		if blackout > 0 {
			blackout--
		} else {
			for id := range present {
				if present[id] && hidden[id] == 0 {
					ids = append(ids, objset.ID(1+id))
				}
			}
		}
		frames[i] = vr.Frame{FID: vr.FrameID(i), Objects: objset.New(ids...)}
	}
	return frames
}

// quietCuts returns the frame counts after which a feed is worth cutting
// to test what SSG carries from one frame to the next: right after a run
// of at least three frames that brought no arrival, and right after an
// empty frame that followed a non-empty one.
func quietCuts(feed []vr.Frame) (afterQuiet, afterEmpty []int) {
	run := 0
	for i := 1; i < len(feed); i++ {
		cur, prev := feed[i].Objects, feed[i-1].Objects
		if !cur.IsEmpty() && cur.SubsetOf(prev) {
			run++
		} else {
			run = 0
		}
		if run >= 3 {
			afterQuiet = append(afterQuiet, i+1)
		}
		if cur.IsEmpty() && !prev.IsEmpty() {
			afterEmpty = append(afterEmpty, i+1)
		}
	}
	return afterQuiet, afterEmpty
}

// terminateVariant returns the i-th of the §5.3 predicates the flicker
// harnesses rotate through; all are closed under subsets, as the
// strategy requires.
func terminateVariant(i int) func(objset.Set) bool {
	switch i % 4 {
	case 1:
		return func(s objset.Set) bool { return s.Len() < 2 }
	case 2:
		return func(s objset.Set) bool { return !s.Contains(1) }
	case 3:
		return func(s objset.Set) bool { return s.Len() < 3 }
	}
	return nil
}

// TestDifferentialFlicker drives all generators over temporally coherent
// feeds and demands frame-exact agreement with the brute-force oracle.
// It is the harness that fails when SSG's traversal on the frame's
// change loses a state: skipping the walk over the previous frame's
// folded nodes, or pruning subtrees by the arrivals without that walk,
// diverges within the first trials. It is deliberately not skipped in
// -short mode, so the race-detector run covers it.
func TestDifferentialFlicker(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	quiet := 0
	for trial := 0; trial < 240; trial++ {
		cfg := Config{Window: 2 + r.Intn(39), Terminate: terminateVariant(trial)}
		cfg.Duration = r.Intn(cfg.Window + 1)
		feed := flickerFeed(r, 2*cfg.Window+20+r.Intn(30), 4+r.Intn(5))
		q, _ := quietCuts(feed)
		quiet += len(q)
		diffAgainstOracle(t, cfg, feed)
	}
	if quiet < 1000 {
		t.Errorf("only %d frames ended a run of no-arrival frames; the feed is not coherent enough to test anything", quiet)
	}
}

// FuzzGeneratorsAgree lets the fuzzer search for a feed on which the
// generators disagree with the oracle. The first three bytes choose the
// window, the duration and the size below which states are terminated;
// every further byte is one frame, its bits the objects present.
func FuzzGeneratorsAgree(f *testing.F) {
	f.Add([]byte{4, 3, 0, 0x02, 0x07, 0x1b, 0x17, 0x0b})                         // the §2 example
	f.Add([]byte{6, 2, 0, 0x0f, 0x0f, 0x0d, 0x0f, 0x07, 0x0f, 0x0f, 0x1f, 0x0f}) // flicker, then an arrival
	f.Add([]byte{5, 1, 0, 0x3c, 0x3c, 0x00, 0x3c, 0x1c, 0x00, 0x00, 0x3c, 0x3d}) // empty frames between repeats
	f.Add([]byte{3, 0, 2, 0x31, 0x31, 0x30, 0x11, 0x31, 0x33, 0x03, 0x31})       // departures under termination
	f.Add([]byte{0, 0, 0, 0x55, 0xaa, 0x55, 0xff, 0xff, 0x0f})                   // w=1
	f.Add([]byte{11, 7, 1, 0x81, 0xc1, 0xc1, 0xe1, 0xc1, 0xc1, 0xc3, 0xc1, 0x81, 0x81, 0xc1, 0xc1, 0xc1, 0x41, 0xc1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		cfg := Config{Window: 1 + int(data[0])%12}
		cfg.Duration = int(data[1]) % (cfg.Window + 1)
		if least := int(data[2]) % 4; least > 0 {
			cfg.Terminate = func(s objset.Set) bool { return s.Len() < least }
		}
		masks := data[3:]
		if len(masks) > 96 {
			masks = masks[:96] // the oracle is cubic in the window
		}
		feed := make([]vr.Frame, len(masks))
		for i, m := range masks {
			var ids []objset.ID
			for b := 0; b < 8; b++ {
				if m&(1<<b) != 0 {
					ids = append(ids, objset.ID(1+b))
				}
			}
			feed[i] = vr.Frame{FID: vr.FrameID(i), Objects: objset.New(ids...)}
		}
		diffAgainstOracle(t, cfg, feed)
	})
}
