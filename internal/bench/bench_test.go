package bench

import (
	"testing"

	"tvq/internal/cnf"
)

// quick returns a heavily scaled-down config so tests stay fast.
func quick() Config { return Config{Seed: 1, Scale: 8} }

func TestLoadDataset(t *testing.T) {
	ds, err := quick().LoadDataset("V1")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Trace.Len() != 1800/8 {
		t.Errorf("frames = %d", ds.Trace.Len())
	}
	if _, err := quick().LoadDataset("nope"); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestLoadDatasetDeterministic(t *testing.T) {
	a, _ := quick().LoadDataset("M2")
	b, _ := quick().LoadDataset("M2")
	if a.Trace.Len() != b.Trace.Len() {
		t.Fatal("nondeterministic dataset")
	}
	for i := 0; i < a.Trace.Len(); i++ {
		if !a.Trace.Frame(i).Objects.Equal(b.Trace.Frame(i).Objects) {
			t.Fatalf("frame %d differs", i)
		}
	}
}

func TestMixedWorkload(t *testing.T) {
	qs := MixedWorkload(25, 300, 240, 7)
	if len(qs) != 25 {
		t.Fatalf("n = %d", len(qs))
	}
	seen := map[int]bool{}
	for _, q := range qs {
		if err := q.Validate(); err != nil {
			t.Fatalf("invalid query: %v", err)
		}
		if seen[q.ID] {
			t.Fatalf("duplicate id %d", q.ID)
		}
		seen[q.ID] = true
		if q.Window != 300 || q.Duration != 240 {
			t.Fatalf("window/duration = %d/%d", q.Window, q.Duration)
		}
	}
	// Deterministic in seed.
	again := MixedWorkload(25, 300, 240, 7)
	for i := range qs {
		if qs[i].String() != again[i].String() {
			t.Fatal("workload not deterministic")
		}
	}
}

func TestGEWorkload(t *testing.T) {
	for _, nmin := range []int{1, 5, 9} {
		qs := GEWorkload(100, nmin, 300, 240, 3)
		if len(qs) != 100 {
			t.Fatalf("n = %d", len(qs))
		}
		min := 1 << 30
		for _, q := range qs {
			if !q.GEOnly() {
				t.Fatalf("non-GE query generated: %s", q)
			}
			for _, cl := range q.Clauses {
				for _, c := range cl {
					if c.N < min {
						min = c.N
					}
				}
			}
		}
		if min != nmin {
			t.Errorf("nmin = %d, want %d", min, nmin)
		}
	}
}

func TestWorkloadsEvaluable(t *testing.T) {
	// Workload queries must index cleanly in CNFEvalE.
	if _, err := cnf.NewEvalE(MixedWorkload(10, 30, 20, 1)...); err != nil {
		t.Fatal(err)
	}
	if _, err := cnf.NewEvalE(GEWorkload(10, 3, 30, 20, 1)...); err != nil {
		t.Fatal(err)
	}
}
