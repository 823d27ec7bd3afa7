package vr

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadTraceCSV hardens the CSV codec: arbitrary input must decode
// into a trace that re-encodes cleanly, or return an error — never
// panic, and never allocate proportionally to a corrupt frame id (the
// MaxTraceFrames guard).
func FuzzReadTraceCSV(f *testing.F) {
	seeds := []string{
		"fid,id,class\n",
		"fid,id,class\n0,1,person\n0,2,car\n1,1,person\n",
		"fid,id,class\n5,4294967295,bus\n",
		"fid,id,class\n99999999999999,1,car\n",
		"fid,id,class\n-3,1,car\n",
		"fid,id,class\n0,1,person\n0,1,truck\n", // conflicting classes
		"fid,id,class\n0,1,\n",                  // empty class name: unrepresentable output
		"bogus,header,row\n",
		"fid,id,class\n0,notanumber,car\n",
		"fid,id,class\n0,1\n",
		"fid,id,class\n0,1,person\n4,,\n", // empty-frame row: trailing empty frames
		"fid,id,class\n7,,\n",
		"fid,id,class\n-1,,\n",
		"fid,id,class\n2,,car\n",
		"",
		"\xff\xfe\x00",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		reg := StandardRegistry()
		tr, err := ReadCSV(strings.NewReader(input), reg)
		if err != nil {
			return
		}
		// A decoded trace must re-encode without error: every class the
		// decoder accepted was registered on the way in.
		var buf bytes.Buffer
		if err := WriteCSV(&buf, tr, reg); err != nil {
			t.Fatalf("re-encode of accepted input failed: %v", err)
		}
		// And read back as the same trace, trailing empty frames too.
		again, err := ReadCSV(&buf, reg)
		if err != nil || !tracesEqual(again, tr) {
			t.Fatalf("re-encoded trace reads back differently: %v", err)
		}
	})
}

// FuzzReadTraceJSONL hardens the JSONL codec the same way.
func FuzzReadTraceJSONL(f *testing.F) {
	seeds := []string{
		"",
		`{"fid":0,"objects":[{"id":1,"class":"person"}]}` + "\n",
		`{"fid":0,"objects":[{"id":1,"class":"person"},{"id":2,"class":"car"}]}` + "\n" +
			`{"fid":1,"objects":[]}` + "\n" +
			`{"fid":2,"objects":[{"id":1,"class":"person"}]}` + "\n",
		`{"fid":3,"objects":[]}` + "\n",
		`{"fid":-1,"objects":[]}` + "\n",
		`{"fid":99999999999999}` + "\n",
		`{"fid":0,"objects":[{"id":4294967295,"class":"bus"}]}` + "\n", // reserved sentinel id
		`{"fid":0,"objects":[{"id":1,"class":""}]}` + "\n",             // empty class name
		`{"fid":1e300}` + "\n",
		`not json at all`,
		"{}\n{}\n",
		"\x00",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		reg := StandardRegistry()
		tr, err := JSONL.ReadTrace(strings.NewReader(input), reg)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := JSONL.WriteTrace(&buf, tr, reg); err != nil {
			t.Fatalf("re-encode of accepted input failed: %v", err)
		}
		// JSONL preserves frame structure exactly: decode the re-encoding
		// and require identical tuples and frame count.
		back, err := JSONL.ReadTrace(&buf, reg)
		if err != nil {
			t.Fatalf("decode of re-encoding failed: %v", err)
		}
		if back.Len() != tr.Len() {
			t.Fatalf("round trip changed frame count: %d -> %d", tr.Len(), back.Len())
		}
	})
}
