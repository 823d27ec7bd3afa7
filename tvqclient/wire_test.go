package tvqclient

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"tvq"
	"tvq/internal/objset"
	"tvq/internal/server"
)

// jsonDelivery and jsonAck are the two hot-path shapes as encoding/json
// structs: the decoders' reference in FuzzDecodeWire.
type jsonDelivery struct {
	Feed    int64         `json:"feed"`
	FID     int64         `json:"fid"`
	Query   int           `json:"query"`
	Objects []uint32      `json:"objects"`
	Frames  []tvq.FrameID `json:"frames"`
}

type jsonAck struct {
	Accepted int   `json:"accepted"`
	Matches  int   `json:"matches"`
	NextFID  int64 `json:"next_fid"`
}

// FuzzDecodeWire holds the scanner to encoding/json on both hot-path
// shapes: for every input, decodeDelivery and decodeAck must accept
// exactly what json.Unmarshal accepts into the reference structs, and
// decode the same values.
func FuzzDecodeWire(f *testing.F) {
	for _, seed := range wireSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var wd jsonDelivery
		werr := json.Unmarshal(b, &wd)
		d, err := decodeDelivery(b)
		if (werr == nil) != (err == nil) {
			t.Fatalf("delivery %q: encoding/json says %v, scanner says %v", b, werr, err)
		}
		if werr == nil {
			ids := make([]objset.ID, len(wd.Objects))
			copy(ids, wd.Objects)
			want := tvq.Delivery{
				Feed: tvq.FeedID(wd.Feed),
				FID:  wd.FID,
				Match: tvq.Match{
					QueryID: wd.Query,
					Objects: objset.New(ids...),
					Frames:  wd.Frames,
				},
			}
			if d.Feed != want.Feed || d.FID != want.FID || d.Match.QueryID != want.Match.QueryID ||
				!d.Match.Objects.Equal(want.Match.Objects) ||
				(d.Match.Frames == nil) != (want.Match.Frames == nil) || !slices.Equal(d.Match.Frames, want.Match.Frames) {
				t.Fatalf("delivery %q: encoding/json decodes %+v, scanner %+v", b, want, d)
			}
		}

		var wa jsonAck
		werr = json.Unmarshal(b, &wa)
		a, err := decodeAck(b)
		if (werr == nil) != (err == nil) {
			t.Fatalf("ack %q: encoding/json says %v, scanner says %v", b, werr, err)
		}
		if werr == nil && (a != batchResult{Accepted: wa.Accepted, Matches: wa.Matches, NextFID: wa.NextFID}) {
			t.Fatalf("ack %q: encoding/json decodes %+v, scanner %+v", b, wa, a)
		}
	})
}

// wireSeeds returns what the daemon writes — JSONLSink lines, SSE data
// lines, acks of strict, disordered and empty batches — and inputs
// that reach each corner of encoding/json's behaviour.
func wireSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte

	var lines bytes.Buffer
	sink := tvq.NewJSONLSink(&lines)
	for _, d := range []tvq.Delivery{
		{Feed: 3, FID: 41, Match: tvq.Match{QueryID: 7, Objects: objset.New(2, 5, 9), Frames: []tvq.FrameID{30, 31, 32, 40, 41}}},
		{Feed: 0, FID: 1 << 40, Match: tvq.Match{QueryID: 1, Objects: objset.New(4294967295), Frames: []tvq.FrameID{-1, 0}}},
		{Feed: 2, FID: 9, Match: tvq.Match{QueryID: 2, Frames: []tvq.FrameID{}}},
		{Feed: 2, FID: 9, Match: tvq.Match{QueryID: 3}},
	} {
		if err := sink.Deliver(d); err != nil {
			tb.Fatal(err)
		}
	}
	for _, line := range bytes.SplitAfter(lines.Bytes(), []byte("\n")) {
		if len(line) > 0 {
			seeds = append(seeds, line, bytes.TrimSuffix(line, []byte("\n"))) // JSONL, SSE data
		}
	}

	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Shutdown() }()
	post := func(path, body string) []byte {
		resp, err := http.Post(ts.URL+path, "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			tb.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode/100 != 2 {
			tb.Fatalf("POST %s: %d %s %v", path, resp.StatusCode, b, err)
		}
		return b
	}
	post("/v1/sessions", `{"name":"strict","queries":[{"id":1,"query":"car >= 1","window":4,"duration":2}]}`)
	post("/v1/sessions", `{"name":"ooo","disorder":4,"queries":[{"id":1,"query":"car >= 1","window":4,"duration":2}]}`)
	frames := func(fids ...int) string {
		var b strings.Builder
		for _, fid := range fids {
			b.WriteString(`{"fid":` + strconv.Itoa(fid) + `,"objects":[{"id":1,"class":"car"}]}` + "\n")
		}
		return b.String()
	}
	seeds = append(seeds,
		post("/v1/feeds/0/frames?session=strict", frames(0, 1, 2, 3, 4, 5, 6, 7)),
		post("/v1/feeds/0/frames?session=strict", ""),
		post("/v1/feeds/0/frames?session=ooo", frames(1, 0, 3, 2, 6, 4, 5)),
		post("/v1/feeds/0/frames?session=ooo", frames(7, 8, 2)),
	)

	for _, s := range []string{
		`null`, ` null `, `{}`, `[]`, `"x"`, `1`, `true`, ``, ` `,
		`{"FEED":1,"Fid":2,"QUERY":3,"Objects":[1],"frameſ":[2],"aCCepted":4,"next_FID":5}`,
		`{"feed":1,"fid":2,"objects":[3],"frames":[4],"next_fid":5,"\ud800":0,"😀":0}`,
		`{"x":{"y":[1,"2",{"z":null}],"w":true},"feed":1,"fid":null,"matches":-0,"late":1.5e3}`,
		`{"feed":1,"feed":2,"frames":[1,2,3],"frames":[null,null,null,null],"objects":[5],"objects":[]}`,
		`{"frames":[1,2],"frames":null,"frames":[null],"objects":[null,7]}`,
		` { "feed" : 1 , "frames" : [ 1 , 2 ] } ` + "\r\n",
		`{"feed":9223372036854775807,"fid":-9223372036854775808,"objects":[4294967295],"accepted":1}`,
		`{"feed":9223372036854775808}`, `{"objects":[4294967296]}`, `{"objects":[-0]}`, `{"fid":1e3}`, `{"fid":1.0}`,
		`{"feed":1}x`, `{"feed":1}{}`, `{"feed":01}`, `{"feed":-}`, `{"frames":[1,]}`, `{"frames":[,1]}`, `{"a":"]","frames":[1]}`,
		`{"frames":["]"]}`, `{"feed":"1"}`, `{"frames":{}}`, `{"a":tru}`, `{"a":"\x"}`, `{"a":"\u12"}`, "{\"a\":\"\x01\"}",
		strings.Repeat("[", 10001), `{"a":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
		`{"a":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}
