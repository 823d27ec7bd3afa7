package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"tvq"
)

// encodeMap is how the daemon wrote an ack before appendAck: a map
// through json.NewEncoder.
func encodeMap(t *testing.T, m map[string]any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAppendAckMatchesEncoder pins the appended ack to the bytes
// json.NewEncoder wrote for the map it replaced, at the values the
// daemon produces and at the extremes of each field's type.
func TestAppendAckMatchesEncoder(t *testing.T) {
	for _, a := range []ack{
		{next: 0},
		{next: 400},
		{accepted: 8, matches: 3, next: 16},
		{accepted: 8, matches: 0, next: 16, disordered: true},
		{accepted: 7, matches: 12, next: 4, disordered: true, late: 1, depth: 3},
		{accepted: math.MaxInt, matches: math.MaxInt, next: math.MaxInt64, disordered: true, late: math.MaxUint64, depth: math.MaxInt},
	} {
		m := map[string]any{"accepted": a.accepted, "matches": a.matches, "next_fid": a.next}
		if a.disordered {
			m["late"] = a.late
			m["reorder_depth"] = a.depth
		}
		if got, want := appendAck(nil, a), encodeMap(t, m); !bytes.Equal(got, want) {
			t.Errorf("%+v: appended %q, encoder wrote %q", a, got, want)
		}
	}
}

// TestIngestAckBytes sends a strict batch, a disordered batch with a
// late frame and a held one, and an empty batch, and requires each ack
// on the wire to be what json.NewEncoder writes for its fields.
func TestIngestAckBytes(t *testing.T) {
	tr := serverTrace(t)
	srv := New(Config{})
	defer srv.Shutdown()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	for _, name := range []string{"strict", "ooo"} {
		disorder := 0
		if name == "ooo" {
			disorder = 2
		}
		mustPost(t, client, ts.URL+"/v1/sessions", "application/json",
			fmt.Sprintf(`{"name":%q,"disorder":%d,"queries":[{"id":1,"query":%q,"window":10,"duration":5}]}`, name, disorder, testQuery),
			http.StatusCreated)
	}
	frames := tr.Frames()
	for _, c := range []struct {
		session, body string
		keys          []string
		held          bool // late and reorder_depth must be non-zero
	}{
		{"strict", framesJSONL(t, frames[:40]), []string{"accepted", "matches", "next_fid"}, false},
		{"strict", "", []string{"accepted", "matches", "next_fid"}, false},
		{"ooo", framesJSONL(t, frames[1:4]), []string{"accepted", "late", "matches", "next_fid", "reorder_depth"}, false},
		// Frame 5 is held behind the missing 4, and frame 0 comes past
		// the bound of 2.
		{"ooo", framesJSONL(t, []tvq.Frame{frames[5], frames[0]}), []string{"accepted", "late", "matches", "next_fid", "reorder_depth"}, true},
		{"ooo", "", []string{"accepted", "matches", "next_fid"}, false},
	} {
		resp, err := client.Post(ts.URL+"/v1/feeds/0/frames?session="+c.session, "application/x-ndjson", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("%s: %d %q %s", c.session, resp.StatusCode, resp.Header.Get("Content-Type"), body)
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.UseNumber()
		var m map[string]any
		if err := dec.Decode(&m); err != nil {
			t.Fatalf("%s: %q: %v", c.session, body, err)
		}
		keys := slices.Sorted(maps.Keys(m))
		if !slices.Equal(keys, c.keys) {
			t.Errorf("%s: ack %q has keys %v, want %v", c.session, body, keys, c.keys)
		}
		if c.held && (m["late"] == json.Number("0") || m["reorder_depth"] == json.Number("0")) {
			t.Errorf("%s: ack %q holds no late or held frame", c.session, body)
		}
		if want := encodeMap(t, m); !bytes.Equal(body, want) {
			t.Errorf("%s: ack %q, encoder writes %q", c.session, body, want)
		}
	}
}
