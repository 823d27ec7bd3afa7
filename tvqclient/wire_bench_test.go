package tvqclient

import (
	"bytes"
	"testing"

	"tvq"
	"tvq/internal/objset"
)

// The benchmarks' results, kept so the calls are not optimized away.
var (
	benchDelivery tvq.Delivery
	benchAck      batchResult
)

// BenchmarkDecodeDelivery decodes one stream line of a 240-frame,
// 5-object match as tvq.JSONLSink writes it and the stream reader hands
// it over (newline cut).
func BenchmarkDecodeDelivery(b *testing.B) {
	frames := make([]tvq.FrameID, 240)
	for i := range frames {
		frames[i] = tvq.FrameID(9760 + i)
	}
	var buf bytes.Buffer
	d := tvq.Delivery{Feed: 3, FID: 9999, Match: tvq.Match{QueryID: 17, Objects: objset.New(4, 11, 12, 30, 71), Frames: frames}}
	if err := tvq.NewJSONLSink(&buf).Deliver(d); err != nil {
		b.Fatal(err)
	}
	line := bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
	b.SetBytes(int64(len(line)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		var err error
		if benchDelivery, err = decodeDelivery(line); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeAck decodes the ack of a disordered session's batch.
func BenchmarkDecodeAck(b *testing.B) {
	body := []byte(`{"accepted":8,"late":1,"matches":23,"next_fid":1041,"reorder_depth":6}` + "\n")
	b.ReportAllocs()
	for range b.N {
		var err error
		if benchAck, err = decodeAck(body); err != nil {
			b.Fatal(err)
		}
	}
}
