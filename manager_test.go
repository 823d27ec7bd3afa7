package tvq_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tvq"
)

func TestSessionManagerBasics(t *testing.T) {
	m := tvq.NewSessionManager(tvq.WithManagerDefaults(tvq.WithMethod(tvq.MethodMFS)))
	a, resumed, err := m.Open(context.Background(), "tenant-a",
		tvq.WithQuery(tvq.MustQuery(1, "car >= 1", 5, 3)))
	if err != nil || resumed {
		t.Fatalf("Open: %v (resumed=%v)", err, resumed)
	}
	if a.Method() != tvq.MethodMFS {
		t.Errorf("manager default not applied: method %s", a.Method())
	}
	// Per-session options win over defaults.
	b, _, err := m.Open(context.Background(), "tenant-b", tvq.WithMethod(tvq.MethodNaive))
	if err != nil {
		t.Fatal(err)
	}
	if b.Method() != tvq.MethodNaive {
		t.Errorf("per-session option lost: method %s", b.Method())
	}

	if _, _, err := m.Open(context.Background(), "tenant-a"); !errors.Is(err, tvq.ErrSessionExists) {
		t.Errorf("duplicate Open: %v, want ErrSessionExists", err)
	}
	if _, err := m.Get("nope"); !errors.Is(err, tvq.ErrUnknownSession) {
		t.Errorf("Get unknown: %v, want ErrUnknownSession", err)
	}
	if err := m.Close("nope"); !errors.Is(err, tvq.ErrUnknownSession) {
		t.Errorf("Close unknown: %v, want ErrUnknownSession", err)
	}
	if got, err := m.Get("tenant-a"); err != nil || got != a {
		t.Errorf("Get returned %v, %v", got, err)
	}
	if names := fmt.Sprint(m.Names()); names != "[tenant-a tenant-b]" {
		t.Errorf("Names = %s", names)
	}

	if err := m.Close("tenant-a"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ProcessFrame(tvq.Frame{}); !errors.Is(err, tvq.ErrSessionClosed) {
		t.Errorf("closed session still processes: %v", err)
	}
	if err := m.CloseAll(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Open(context.Background(), "late"); !errors.Is(err, tvq.ErrSessionClosed) {
		t.Errorf("Open after CloseAll: %v, want ErrSessionClosed", err)
	}
}

func TestSessionManagerNameValidation(t *testing.T) {
	m := tvq.NewSessionManager()
	defer m.CloseAll()
	for _, bad := range []string{"", ".hidden", "-flag", "a/b", "a b", "über", string(make([]byte, 65))} {
		if _, _, err := m.Open(context.Background(), bad); err == nil {
			t.Errorf("name %q accepted", bad)
			m.Close(bad)
		}
	}
	for _, good := range []string{"a", "tenant-1", "cam.front_door", "A2_x-9"} {
		if _, _, err := m.Open(context.Background(), good); err != nil {
			t.Errorf("name %q rejected: %v", good, err)
		}
	}
}

// TestSessionManagerCheckpointResume is the manager-level crash/restart
// round trip: a session processes half a trace and closes (writing its
// final checkpoint); a second manager over the same directory resumes
// it under the same name, finishes the trace, and the combined match
// stream equals an uninterrupted run.
func TestSessionManagerCheckpointResume(t *testing.T) {
	tr := sessionTrace(t)
	q := tvq.MustQuery(1, "car >= 1 AND person >= 2", 10, 5)

	var want []string
	ref, err := tvq.Open(context.Background(), tvq.WithQuery(q))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ref.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		for _, m := range r.Matches {
			want = append(want, shiftedKey(r.FID, m, 0))
		}
	}
	ref.Close()

	dir := t.TempDir()
	cut := int64(tr.Len() / 2)
	var got []string

	m1 := tvq.NewSessionManager(tvq.WithCheckpointDir(dir, tvq.EveryFrames(7)))
	s1, resumed, err := m1.Open(context.Background(), "cam0", tvq.WithQuery(q))
	if err != nil || resumed {
		t.Fatalf("fresh Open: %v (resumed=%v)", err, resumed)
	}
	for _, f := range tr.Frames()[:cut] {
		ms, err := s1.ProcessFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			got = append(got, shiftedKey(f.FID, m, 0))
		}
	}
	if err := m1.CloseAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "cam0.tvqsnap")); err != nil {
		t.Fatalf("final checkpoint missing: %v", err)
	}

	m2 := tvq.NewSessionManager(tvq.WithCheckpointDir(dir, tvq.EveryFrames(7)))
	s2, resumed, err := m2.Open(context.Background(), "cam0")
	if err != nil {
		t.Fatal(err)
	}
	if !resumed {
		t.Fatal("second Open did not resume from the checkpoint")
	}
	if next := s2.NextFID(0); next != cut {
		t.Fatalf("resumed at frame %d, want %d", next, cut)
	}
	for _, f := range tr.Frames()[cut:] {
		ms, err := s2.ProcessFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			got = append(got, shiftedKey(f.FID, m, 0))
		}
	}
	if err := m2.CloseAll(); err != nil {
		t.Fatal(err)
	}

	if len(want) == 0 {
		t.Fatal("reference run produced no matches; test is vacuous")
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("manager resume diverged: %d matches vs %d", len(got), len(want))
	}
}
