package tvqclient

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"tvq"
	"tvq/internal/objset"
	"tvq/internal/server"
)

// TestDaemonWireTakesExactForm writes randomized deliveries through a
// real tvq.JSONLSink and takes acks from a real daemon, and requires the
// exact-form readers to read every one of them, with the values
// json.Unmarshal decodes. A change to either writer that moves what the
// daemon sends off the readers' form fails here rather than quietly
// sending the client's hot paths through reflection.
func TestDaemonWireTakesExactForm(t *testing.T) {
	t.Run("deliveries", func(t *testing.T) {
		var buf bytes.Buffer
		sink := tvq.NewJSONLSink(&buf)
		rng := rand.New(rand.NewPCG(51, 1))
		var sent []tvq.Delivery
		for range 400 {
			feed, fid := tvq.FeedID(rng.IntN(2001)-1000), rng.Int64N(2001)-1000
			switch rng.IntN(8) {
			case 0:
				fid = math.MinInt64
			case 1:
				fid = math.MaxInt64
			}
			// Several matches of one feed and frame, some sharing a
			// frame list, so the sink writes from its tail memo too.
			var shared []tvq.FrameID
			for range 1 + rng.IntN(4) {
				frames := shared
				if frames == nil || rng.IntN(2) == 0 {
					frames = randomFrames(rng)
					shared = frames
				}
				d := tvq.Delivery{Feed: feed, FID: fid, Match: tvq.Match{
					QueryID: rng.IntN(2000) - 1000,
					Objects: randomObjects(rng),
					Frames:  frames,
				}}
				if err := sink.Deliver(d); err != nil {
					t.Fatal(err)
				}
				sent = append(sent, d)
			}
		}
		lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
		lines = lines[:len(lines)-1] // after the last newline
		if len(lines) != len(sent) {
			t.Fatalf("%d lines for %d deliveries", len(lines), len(sent))
		}
		for i, line := range lines {
			// The JSONL line, and the same object as an SSE data line.
			for _, form := range [][]byte{line, bytes.TrimSuffix(line, []byte("\n"))} {
				w, ok := readDelivery(form)
				if !ok {
					t.Fatalf("sink line %q is not in the exact form", form)
				}
				var ref jsonDelivery
				if err := json.Unmarshal(form, &ref); err != nil {
					t.Fatal(err)
				}
				if w.Feed != ref.Feed || w.FID != ref.FID || w.Query != ref.Query ||
					!sameList(w.Objects, ref.Objects) || !sameList(w.Frames, ref.Frames) {
					t.Fatalf("line %q: read %+v, encoding/json %+v", form, w, ref)
				}
				d, err := decodeDelivery(form)
				if err != nil {
					t.Fatal(err)
				}
				want := sent[i]
				if d.Feed != want.Feed || d.FID != want.FID || d.Match.QueryID != want.Match.QueryID ||
					!d.Match.Objects.Equal(want.Match.Objects) || !sameList(d.Match.Frames, want.Match.Frames) {
					t.Fatalf("line %q decodes to %+v, sent %+v", form, d, want)
				}
			}
		}
	})

	t.Run("acks", func(t *testing.T) {
		srv := server.New(server.Config{})
		ts := httptest.NewServer(srv.Handler())
		defer func() { ts.Close(); srv.Shutdown() }()
		post := func(path, body string) []byte {
			resp, err := http.Post(ts.URL+path, "application/x-ndjson", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode/100 != 2 {
				t.Fatalf("POST %s: %d %s %v", path, resp.StatusCode, b, err)
			}
			return b
		}
		post("/v1/sessions", `{"name":"strict","queries":[{"id":1,"query":"car >= 1","window":4,"duration":2}]}`)
		post("/v1/sessions", `{"name":"ooo","disorder":3,"queries":[{"id":1,"query":"car >= 1","window":4,"duration":2}]}`)
		frames := func(fids ...int) string {
			var b strings.Builder
			for _, fid := range fids {
				b.WriteString(`{"fid":` + strconv.Itoa(fid) + `,"objects":[{"id":1,"class":"car"},{"id":2,"class":"car"}]}` + "\n")
			}
			return b.String()
		}
		late := 0
		for _, c := range []struct{ path, body string }{
			{"/v1/feeds/0/frames?session=strict", frames(0, 1, 2, 3, 4, 5, 6, 7)},
			{"/v1/feeds/0/frames?session=strict", ""},
			{"/v1/feeds/0/frames?session=strict", frames(8)},
			{"/v1/feeds/0/frames?session=ooo", frames(1, 0, 3, 2, 6, 4, 5)},
			{"/v1/feeds/0/frames?session=ooo", ""},
			{"/v1/feeds/0/frames?session=ooo", frames(9, 10, 11, 12, 2)},
			{"/v1/feeds/0/frames?session=ooo", frames(13, 14, 15, 16, 17, 18, 19, 20)},
		} {
			body := post(c.path, c.body)
			a, ok := readAck(body)
			if !ok {
				t.Fatalf("ack %q is not in the exact form", body)
			}
			var ref struct {
				jsonAck
				Late int `json:"late"`
			}
			if err := json.Unmarshal(body, &ref); err != nil {
				t.Fatal(err)
			}
			if a != (batchResult{Accepted: ref.Accepted, Matches: ref.Matches, NextFID: ref.NextFID}) {
				t.Fatalf("ack %q: read %+v, encoding/json %+v", body, a, ref.jsonAck)
			}
			late += ref.Late
		}
		if late == 0 {
			t.Fatal("no ack reported a late frame")
		}
	})
}

// randomObjects returns a zero, empty, sparse or dense object set,
// with ids 0 and 4294967295 among the candidates.
func randomObjects(rng *rand.Rand) objset.Set {
	var ids []objset.ID
	switch rng.IntN(6) {
	case 0:
		return objset.Set{}
	case 1:
		return objset.New()
	case 2: // sparse, at the ends of the id range
		ids = []objset.ID{0, math.MaxUint32}
		if rng.IntN(2) == 0 {
			ids = ids[rng.IntN(2):][:1]
		}
	case 3: // sparse, spread out
		for range 1 + rng.IntN(6) {
			ids = append(ids, rng.Uint32())
		}
	default: // dense: many ids in a few 64-id words
		base := objset.ID(rng.IntN(1 << 20))
		if rng.IntN(4) == 0 {
			base = math.MaxUint32 - 127
		}
		for range 8 + rng.IntN(60) {
			ids = append(ids, base+objset.ID(rng.IntN(128)))
		}
	}
	return objset.New(ids...)
}

// randomFrames returns a nil, empty or 1..300 long frame list, mostly
// runs of consecutive ids.
func randomFrames(rng *rand.Rand) []tvq.FrameID {
	switch rng.IntN(6) {
	case 0:
		return nil
	case 1:
		return []tvq.FrameID{}
	}
	n := 1 + rng.IntN(300)
	if rng.IntN(3) == 0 {
		n = 300
	}
	frames := make([]tvq.FrameID, n)
	fid := rng.Int64N(1<<40) - 1000
	for i := range frames {
		frames[i] = fid
		fid++
		if rng.IntN(10) == 0 {
			fid += rng.Int64N(1000)
		}
	}
	return frames
}

// sameList reports whether a and b hold the same elements and are both
// nil or both not.
func sameList[T comparable](a, b []T) bool {
	return (a == nil) == (b == nil) && slices.Equal(a, b)
}

// TestWireSeedEdges reads the checked-in FuzzDecodeWire inputs at the
// exact-form readers' edges and requires each to take the path its name
// starts with: "delivery-" and "ack-" inputs are read by readDelivery or
// readAck, "json-" inputs by neither, so encoding/json decodes them.
// FuzzDecodeWire, which runs the same files, checks the values.
func TestWireSeedEdges(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeWire")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		head, arg, _ := strings.Cut(string(raw), "\n")
		arg = strings.TrimSpace(arg)
		quoted, ok := strings.CutPrefix(arg, "[]byte(")
		quoted, ok2 := strings.CutSuffix(quoted, ")")
		b, err := strconv.Unquote(quoted)
		if head != "go test fuzz v1" || !ok || !ok2 || err != nil {
			t.Fatalf("%s: not a one-[]byte corpus file: %q", e.Name(), raw)
		}
		_, isDelivery := readDelivery([]byte(b))
		_, isAck := readAck([]byte(b))
		var want bool
		switch kind, _, _ := strings.Cut(e.Name(), "-"); kind {
		case "delivery":
			want = isDelivery
		case "ack":
			want = isAck
		case "json":
			want = !isDelivery && !isAck
		default:
			t.Fatalf("%s: name starts with neither delivery-, ack- nor json-", e.Name())
		}
		if !want {
			t.Errorf("%s: %q read as delivery %v, as ack %v", e.Name(), b, isDelivery, isAck)
		}
	}
}
