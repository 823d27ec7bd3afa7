package core

import (
	"runtime"
	"testing"
	"unsafe"

	"tvq/internal/track"
	"tvq/internal/video"
	"tvq/internal/vr"
)

// sizeClasses are the Go runtime's small-object size classes; a larger
// object takes whole 8 KiB pages.
var sizeClasses = []int{8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176,
	192, 208, 224, 240, 256, 288, 320, 352, 384, 416, 448, 480, 512, 576, 640,
	704, 768, 896, 1024, 1152, 1280, 1408, 1536, 1792, 2048, 2304, 2688, 3072,
	3200, 3456, 4096, 4864, 5376, 6144, 6528, 6784, 6912, 8192, 9472, 9728,
	10240, 10880, 12288, 13568, 14336, 16384, 18432, 19072, 20480, 21760,
	24576, 27264, 28672, 32768}

// heapBytes returns what an allocation of n bytes takes on the heap.
func heapBytes(n int) int {
	if n == 0 {
		return 0
	}
	for _, c := range sizeClasses {
		if n <= c {
			return c
		}
	}
	return (n + 8191) &^ 8191
}

// ssgHeap is the heap an SSG holds, by component, in bytes.
type ssgHeap struct {
	node, state, objects, frames, blockers, edges, tables, pool, ring int
}

func (h ssgHeap) total() int {
	return h.node + h.state + h.objects + h.frames + h.blockers + h.edges + h.tables + h.pool + h.ring
}

// measureSSGHeap walks g and adds up what each part of it holds, each
// allocation rounded up to its size class.
func measureSSGHeap(g *SSG) ssgHeap {
	var h ssgHeap
	runBytes := func(fl *frameList) int { return heapBytes(cap(fl.runs) * int(unsafe.Sizeof(frameRun{}))) }
	for _, n := range g.nodes.All() {
		if n == nil {
			continue
		}
		s := n.state
		h.node += heapBytes(int(unsafe.Sizeof(*n)))
		h.state += heapBytes(int(unsafe.Sizeof(*s)))
		h.objects += heapBytes(s.Objects.Bytes())
		h.frames += runBytes(&s.frames)
		h.blockers += heapBytes(s.extra.Bytes())
		h.edges += heapBytes(8*cap(n.children)) + heapBytes(8*cap(n.parents))
	}
	h.tables = g.intern.TableBytes() + 8*g.nodes.Cap()
	for _, s := range g.pool.free {
		h.pool += heapBytes(int(unsafe.Sizeof(*s))) + runBytes(&s.frames) + heapBytes(s.extra.Bytes())
	}
	for _, class := range g.edges.free {
		for _, a := range class {
			h.pool += heapBytes(8 * cap(a))
		}
	}
	for _, slot := range g.due {
		h.ring += heapBytes(8 * cap(slot))
	}
	for _, s := range g.window.sets {
		h.ring += heapBytes(s.Bytes())
	}
	return h
}

// TestSSGHeapBreakdown logs, with -v, the bytes a live SSG state holds
// on D2 and V2 at the paper's window (w=300, d=240), cut at three
// quarters of each full-scale trace, by component: the node, the State,
// its object set, frame list and blockers, its edge arrays, the
// interner and node tables, the state and edge pools, and the expiry
// and window rings. It also logs the heap measured across the run, so
// that what the walk misses shows. TestSSGHeapPerState, at the root,
// holds the measured total to a budget.
func TestSSGHeapBreakdown(t *testing.T) {
	if !testing.Verbose() || testing.Short() {
		t.Skip("a breakdown for -v, without -short")
	}
	for _, name := range []string{"D2", "V2"} {
		p, ok := video.ProfileByName(name)
		if !ok {
			t.Fatalf("no profile %s", name)
		}
		sc, err := video.Generate(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := track.Detect(sc, vr.StandardRegistry(), track.Noise{})
		if err != nil {
			t.Fatal(err)
		}
		frames := tr.Frames()
		frames = frames[:len(frames)*3/4]
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		g := NewSSG(Config{Window: 300, Duration: 240})
		for _, f := range frames {
			g.Process(f)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		h := measureSSGHeap(g)
		live := float64(g.StateCount())
		per := func(b int) float64 { return float64(b) / live }
		var runs int
		for _, n := range g.nodes.All() {
			if n != nil {
				runs += len(n.state.frames.runs)
			}
		}
		t.Logf("%s: %d live states, %.2f runs each; bytes per live state:", name, g.StateCount(), float64(runs)/live)
		t.Logf("  node %.0f  State %.0f  objects %.0f  frame lists %.0f  blockers %.0f  edges %.0f",
			per(h.node), per(h.state), per(h.objects), per(h.frames), per(h.blockers), per(h.edges))
		t.Logf("  interner and node tables %.0f  pool %.0f  ring %.0f", per(h.tables), per(h.pool), per(h.ring))
		t.Logf("  walked %.0f; heap measured across the run %.0f",
			per(h.total()), float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/live)
		runtime.KeepAlive(g)
	}
}
