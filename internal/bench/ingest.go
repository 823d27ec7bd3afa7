package bench

import (
	"bytes"

	"tvq/internal/vr"
)

// IngestBatchFrames is the batch size of the daemon ingest benchmark —
// large enough that per-request HTTP overhead amortizes away and the
// codec's per-frame decode cost dominates the wall clock.
const IngestBatchFrames = 2048

// EncodeBatches pre-encodes a trace into self-contained wire batches of
// up to batch frames each, exactly as tvqclient ships them. It returns
// the batches and the total wire bytes.
func EncodeBatches(t *vr.Trace, codec vr.Codec, reg *vr.Registry, batch int) ([][]byte, int64, error) {
	frames := t.Frames()
	var out [][]byte
	var total int64
	for start := 0; start < len(frames); start += batch {
		end := min(start+batch, len(frames))
		var buf bytes.Buffer
		fw := codec.NewFrameWriter(&buf, reg)
		for _, f := range frames[start:end] {
			if err := fw.WriteFrame(f); err != nil {
				return nil, 0, err
			}
		}
		if err := fw.Flush(); err != nil {
			return nil, 0, err
		}
		out = append(out, buf.Bytes())
		total += int64(buf.Len())
	}
	return out, total, nil
}
