package vr

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"tvq/internal/objset"
)

func TestRegistry(t *testing.T) {
	r := NewRegistry("person", "car")
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	if c := r.Class("person"); c != 0 {
		t.Errorf("person = %d", c)
	}
	if c := r.Class("truck"); c != 2 {
		t.Errorf("truck = %d", c)
	}
	if got := r.Name(1); got != "car" {
		t.Errorf("Name(1) = %q", got)
	}
	if got := r.Name(99); got != "" {
		t.Errorf("Name(99) = %q", got)
	}
	if _, ok := r.Lookup("bus"); ok {
		t.Error("Lookup(bus) should miss")
	}
	if c, ok := r.Lookup("car"); !ok || c != 1 {
		t.Errorf("Lookup(car) = %d, %v", c, ok)
	}
	var zero Registry
	if c := zero.Class("x"); c != 0 {
		t.Errorf("zero-value registry Class = %d", c)
	}
}

func TestStandardRegistry(t *testing.T) {
	r := StandardRegistry()
	want := []string{"person", "car", "truck", "bus"}
	got := r.Names()
	if len(got) != len(want) {
		t.Fatalf("Names = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names = %v, want %v", got, want)
		}
	}
}

func TestNewTraceGroupsAndDensifies(t *testing.T) {
	tuples := []Tuple{
		{FID: 2, ID: 7, Class: 1},
		{FID: 0, ID: 5, Class: 0},
		{FID: 2, ID: 5, Class: 0},
	}
	tr, err := NewTrace(tuples)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (densified)", tr.Len())
	}
	if !tr.Frame(0).Objects.Equal(objset.New(5)) {
		t.Errorf("frame 0 = %v", tr.Frame(0).Objects)
	}
	if !tr.Frame(1).Objects.IsEmpty() {
		t.Errorf("frame 1 = %v, want empty", tr.Frame(1).Objects)
	}
	if !tr.Frame(2).Objects.Equal(objset.New(5, 7)) {
		t.Errorf("frame 2 = %v", tr.Frame(2).Objects)
	}
	if tr.ClassOf(7) != 1 {
		t.Errorf("ClassOf(7) = %d", tr.ClassOf(7))
	}
}

func TestNewTraceRejectsConflictingClass(t *testing.T) {
	_, err := NewTrace([]Tuple{
		{FID: 0, ID: 1, Class: 0},
		{FID: 1, ID: 1, Class: 2},
	})
	if err == nil {
		t.Fatal("conflicting classes accepted")
	}
}

func TestNewTraceRejectsNegativeFID(t *testing.T) {
	if _, err := NewTrace([]Tuple{{FID: -1, ID: 1}}); err == nil {
		t.Fatal("negative fid accepted")
	}
}

func TestPrefix(t *testing.T) {
	tr := NewTraceFromFrames(
		[]objset.Set{objset.New(1), objset.New(2), objset.New(3)},
		map[objset.ID]Class{1: 0, 2: 0, 3: 0},
	)
	p := tr.Prefix(2)
	if p.Len() != 2 {
		t.Fatalf("Prefix(2).Len = %d", p.Len())
	}
	if over := tr.Prefix(99); over.Len() != 3 {
		t.Fatalf("Prefix(99).Len = %d", over.Len())
	}
}

func TestComputeStats(t *testing.T) {
	// Object 1 in frames {0,1,3}: one gap (occlusion). Object 2 in {1}.
	tr := NewTraceFromFrames(
		[]objset.Set{objset.New(1), objset.New(1, 2), objset.New(), objset.New(1)},
		map[objset.ID]Class{1: 0, 2: 1},
	)
	st := ComputeStats(tr)
	if st.Frames != 4 || st.Objects != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// 4 appearances total: object 1 in frames {0,1,3}, object 2 in {1}.
	if got, want := st.ObjPerFrame, 1.0; got != want {
		t.Errorf("ObjPerFrame = %v, want %v", got, want)
	}
	if got, want := st.OccPerObj, 0.5; got != want {
		t.Errorf("OccPerObj = %v, want %v", got, want)
	}
	if got, want := st.FramesPerObj, 2.0; got != want {
		t.Errorf("FramesPerObj = %v, want %v", got, want)
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	tr := NewTraceFromFrames(nil, nil)
	st := ComputeStats(tr)
	if st.Frames != 0 || st.Objects != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUniqueObjectSets(t *testing.T) {
	tr := NewTraceFromFrames(
		[]objset.Set{objset.New(1, 2), objset.New(1, 2), objset.New(2)},
		map[objset.ID]Class{1: 0, 2: 0},
	)
	if got := UniqueObjectSets(tr); got != 2 {
		t.Errorf("UniqueObjectSets = %d", got)
	}
}

func randomTrace(r *rand.Rand, frames, maxObj int) *Trace {
	classes := map[objset.ID]Class{}
	var fs []objset.Set
	for i := 0; i < frames; i++ {
		n := r.Intn(maxObj)
		ids := make([]objset.ID, 0, n)
		for j := 0; j < n; j++ {
			id := objset.ID(r.Intn(maxObj * 2))
			ids = append(ids, id)
			classes[id] = Class(id % 4)
		}
		fs = append(fs, objset.New(ids...))
	}
	return NewTraceFromFrames(fs, classes)
}

func tracesEqual(a, b *Trace) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		fa, fb := a.Frame(i), b.Frame(i)
		if !fa.Objects.Equal(fb.Objects) {
			return false
		}
		for _, id := range fa.Objects.IDs() {
			if a.ClassOf(id) != b.ClassOf(id) {
				return false
			}
		}
	}
	return true
}

// TestCSVRoundTrip: a trace written as CSV reads back whole, trailing
// empty frames included (one empty-frame row carries them), and as the
// same trace JSONL and binary read back.
func TestCSVRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 30; i++ {
		base := randomTrace(r, r.Intn(30), 8)
		frames := make([]objset.Set, 0, base.Len()+3)
		for _, f := range base.Frames() {
			frames = append(frames, f.Objects)
		}
		for n := i % 4; n > 0; n-- {
			frames = append(frames, objset.New())
		}
		tr := NewTraceFromFrames(frames, base.Classes())
		var buf bytes.Buffer
		if err := WriteCSV(&buf, tr, StandardRegistry()); err != nil {
			t.Fatal(err)
		}
		got, err := ReadCSV(&buf, StandardRegistry())
		if err != nil {
			t.Fatal(err)
		}
		if !tracesEqual(got, tr) {
			t.Fatalf("trace %d: csv reads %d frames of %d", i, got.Len(), tr.Len())
		}
		for _, c := range Codecs() {
			buf.Reset()
			if err := c.WriteTrace(&buf, tr, StandardRegistry()); err != nil {
				t.Fatal(err)
			}
			other, err := c.ReadTrace(&buf, StandardRegistry())
			if err != nil {
				t.Fatal(err)
			}
			if !tracesEqual(got, other) {
				t.Fatalf("trace %d: csv reads %d frames, %s %d", i, got.Len(), c.Name(), other.Len())
			}
		}
	}
}

// TestReadCSVEmptyFrameRow: an empty-frame row extends the trace to its
// frame and adds no detection, wherever it stands among the rows.
func TestReadCSVEmptyFrameRow(t *testing.T) {
	for in, want := range map[string]int{
		"fid,id,class\n3,,\n":                      4,
		"fid,id,class\n0,1,person\n5,,\n":          6,
		"fid,id,class\n5,,\n0,1,person\n":          6,
		"fid,id,class\n2,,\n6,1,person\n":          7,
		"fid,id,class\n0,1,person\n0,,\n1,2,car\n": 2,
	} {
		tr, err := ReadCSV(strings.NewReader(in), StandardRegistry())
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		ids := 0
		for _, f := range tr.Frames() {
			ids += f.Objects.Len()
		}
		if tr.Len() != want || ids != strings.Count(in, "person")+strings.Count(in, "car") {
			t.Errorf("%q: %d frames holding %d ids, want %d frames", in, tr.Len(), ids, want)
		}
	}
}

func TestJSONLRoundTripPreservesEmptyFrames(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 20; i++ {
		reg := StandardRegistry()
		tr := randomTrace(r, 10+r.Intn(20), 8)
		var buf bytes.Buffer
		if err := JSONL.WriteTrace(&buf, tr, reg); err != nil {
			t.Fatal(err)
		}
		got, err := JSONL.ReadTrace(&buf, StandardRegistry())
		if err != nil {
			t.Fatal(err)
		}
		if !tracesEqual(got, tr) {
			t.Fatalf("jsonl round trip mismatch: %d vs %d frames", got.Len(), tr.Len())
		}
	}
}

func TestReadCSVRejectsGarbage(t *testing.T) {
	cases := []string{
		"bogus,header,row\n1,2,car\n",
		"fid,id,class\nnotanint,2,car\n",
		"fid,id,class\n1,notanint,car\n",
		"fid,id,class\n-5,2,car\n",
		"fid,id,class\n1,2\n",
		"fid,id,class\n-1,,\n",      // empty-frame row before frame 0
		"fid,id,class\n1048576,,\n", // empty-frame row past MaxTraceFrames
		"fid,id,class\n1,,car\n",    // a class without an id
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c), StandardRegistry()); err == nil {
			t.Errorf("accepted garbage %q", c)
		}
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	cases := []string{
		"{not json\n",
		`{"fid":-1,"objects":[]}` + "\n",
		`{"fid":0,"objects":[{"id":7,"class":""}]}` + "\n",
		// Object 7 changes class between frames: corrupt trace.
		`{"fid":0,"objects":[{"id":7,"class":"car"}]}` + "\n" +
			`{"fid":1,"objects":[{"id":7,"class":"bus"}]}` + "\n",
	}
	for _, c := range cases {
		if _, err := JSONL.ReadTrace(strings.NewReader(c), StandardRegistry()); err == nil {
			t.Errorf("accepted garbage %q", c)
		}
	}
}

func TestTuplesOrdering(t *testing.T) {
	tr := NewTraceFromFrames(
		[]objset.Set{objset.New(3, 1), objset.New(2)},
		map[objset.ID]Class{1: 0, 2: 0, 3: 0},
	)
	tups := tr.Tuples()
	want := []Tuple{{0, 1, 0}, {0, 3, 0}, {1, 2, 0}}
	if len(tups) != len(want) {
		t.Fatalf("tuples = %v", tups)
	}
	for i := range want {
		if tups[i] != want[i] {
			t.Fatalf("tuples = %v, want %v", tups, want)
		}
	}
}
