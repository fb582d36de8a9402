package colseg

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/colscan"
)

// TestChunkSizeHintExactForNumeric keeps Build's one allocation one:
// a hint that drifts from the encoder is silently absorbed by append
// growth and the final exact-size copy.
func TestChunkSizeHintExactForNumeric(t *testing.T) {
	var b bytes.Buffer
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&b, "%d.5\n", i)
	}
	for _, cs := range []int64{7, 100, 4096, 1 << 20} {
		for _, trim := range []int{0, 1} { // with and without a trailing newline
			data := b.Bytes()[:b.Len()-trim]
			payload, chunks := chunkSizeHint(colscan.FormatNumeric, data, cs)
			buf, entries, err := appendSegmentChunks(nil, 0, nil, colscan.FormatNumeric, data, 0, cs)
			if err != nil || len(buf) != payload || len(entries) != chunks {
				t.Fatalf("chunk size %d, trim %d: hint %d bytes in %d chunks, encoder %d in %d (err %v)",
					cs, trim, payload, chunks, len(buf), len(entries), err)
			}
		}
	}
}
