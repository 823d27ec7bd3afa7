package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"

	"tvq/internal/cnf"
	"tvq/internal/objset"
	"tvq/internal/track"
	"tvq/internal/video"
	"tvq/internal/vr"
)

// Inputs are built in two steps so that runs with different seeds do the
// same amount of work on different inputs. The clips and the query
// bodies come from a fixed pool (-scenes); -seed then decides the order
// of the clips, which query carries which id, and the arrival order
// within the disorder bound. Drawing whole scenes from -seed instead
// moves dense-static throughput by ±18% between seeds, which no
// regression bound survives.

var classLabels = []string{"person", "car", "truck", "bus"}

// clipIDs is the id range each clip's objects are moved into, so that
// clips played back to back never share an object.
const clipIDs = 100000

// sceneTrace renders profile × k as about k clips of the profile's own
// length, each its own scene from the pool with perfect tracking, played
// back to back with frames renumbered from 0, in the order order gives
// (0, 1, 2, ... when it is nil). Frames and objects scale together, so
// density holds. Every join is a scene cut whatever the order, so every
// order costs a steady workload the same.
func sceneTrace(profile string, k float64, pool int64, order *rand.Rand, reg *vr.Registry) (*vr.Trace, error) {
	p, ok := video.ProfileByName(profile)
	if !ok {
		return nil, fmt.Errorf("unknown dataset profile %q", profile)
	}
	clips := max(2, int(k+0.5))
	p.Frames = max(8, int(float64(p.Frames)*k/float64(clips)))
	p.Objects = max(2, int(float64(p.Objects)*k/float64(clips)))
	p.FramesPerObj = min(p.FramesPerObj, float64(p.Frames))

	sequence := make([]int, clips)
	for i := range sequence {
		sequence[i] = i
	}
	if order != nil {
		sequence = order.Perm(clips)
	}
	var sets []objset.Set
	classes := make(map[objset.ID]vr.Class)
	var ids []objset.ID
	for _, c := range sequence {
		sc, err := video.Generate(p, pool*1000+int64(c))
		if err != nil {
			return nil, err
		}
		t, err := track.Detect(sc, reg, track.Noise{})
		if err != nil {
			return nil, err
		}
		base := objset.ID(c+1) * clipIDs
		for id, class := range t.Classes() {
			classes[base+id] = class
		}
		for _, f := range t.Frames() {
			ids = f.Objects.AppendTo(ids[:0])
			for i := range ids {
				ids[i] += base
			}
			sets = append(sets, objset.New(ids...))
		}
	}
	return vr.NewTraceFromFrames(sets, classes), nil
}

// encodeTVQF renders frames in the binary wire format.
func encodeTVQF(frames []vr.Frame, reg *vr.Registry) ([]byte, error) {
	var buf bytes.Buffer
	fw := vr.Binary.NewFrameWriter(&buf, reg)
	for _, f := range frames {
		if err := fw.WriteFrame(f); err != nil {
			return nil, err
		}
	}
	if err := fw.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// framesDigest is the SHA-256 of a canonical rendering of the frames in
// the order given: one line per frame, "fid id:class id:class ...", ids
// ascending. t supplies the classes.
func framesDigest(frames []vr.Frame, t *vr.Trace, reg *vr.Registry) string {
	h := sha256.New()
	w := bufio.NewWriter(h)
	var num []byte
	for _, f := range frames {
		num = strconv.AppendInt(num[:0], f.FID, 10)
		w.Write(num)
		f.Objects.Range(func(id objset.ID) bool {
			w.WriteByte(' ')
			num = strconv.AppendUint(num[:0], uint64(id), 10)
			w.Write(num)
			w.WriteByte(':')
			w.WriteString(reg.Name(t.ClassOf(id)))
			return true
		})
		w.WriteByte('\n')
	}
	w.Flush()
	return hex.EncodeToString(h.Sum(nil))
}

// mixedBodies draws n CNF bodies mixing ≥, ≤ and = conditions over the
// four classes, one to three clauses of one or two conditions each —
// the query mix of the paper's Figures 8 and 10.
func mixedBodies(n int, rng *rand.Rand) [][]cnf.Disjunction {
	return bodies(n, rng, func() cnf.Condition {
		return cnf.Condition{Label: classLabels[rng.Intn(len(classLabels))], Op: cnf.Op(rng.Intn(3)), N: rng.Intn(5)}
	})
}

// geBodies draws n ≥-only bodies with thresholds in [lo, hi].
func geBodies(n, lo, hi int, rng *rand.Rand) [][]cnf.Disjunction {
	return bodies(n, rng, func() cnf.Condition {
		return cnf.Condition{Label: classLabels[rng.Intn(len(classLabels))], Op: cnf.GE, N: lo + rng.Intn(hi-lo+1)}
	})
}

func bodies(n int, rng *rand.Rand, cond func() cnf.Condition) [][]cnf.Disjunction {
	out := make([][]cnf.Disjunction, n)
	for i := range out {
		for c, nc := 0, 1+rng.Intn(3); c < nc; c++ {
			var d cnf.Disjunction
			for j, nj := 0, 1+rng.Intn(2); j < nj; j++ {
				d = append(d, cond())
			}
			out[i] = append(out[i], d)
		}
	}
	return out
}

// queriesFrom gives the bodies a window and duration and the ids
// first, first+1, ... in a seed-chosen order, so which query carries
// which id differs between seeds while the set of bodies does not.
func queriesFrom(bodies [][]cnf.Disjunction, window, duration, first int, rng *rand.Rand) []cnf.Query {
	ids := rng.Perm(len(bodies))
	out := make([]cnf.Query, len(bodies))
	for i, b := range bodies {
		out[i] = cnf.Query{ID: first + ids[i], Clauses: b, Window: window, Duration: duration}
	}
	return out
}

// coversAllClasses reports whether the queries together name every
// class, which keeps the engine's class filter a no-op for their
// window group whatever joins or leaves it later.
func coversAllClasses(qs []cnf.Query) bool {
	seen := map[string]bool{}
	for _, q := range qs {
		for _, l := range q.Labels() {
			seen[l] = true
		}
	}
	return len(seen) == len(classLabels)
}
