package dataset

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// readChunk is the most values ReadFloats decodes per read: 64 KiB.
const readChunk = 1 << 13

// ReadFloats reads count little-endian float64 values, the payload
// layout of centroid model files. It reads in chunks and grows the result only as values arrive, so a
// header that claims more than the stream holds costs memory for the
// bytes that did arrive plus one chunk. The short read is reported as
// an error wrapping io.EOF or io.ErrUnexpectedEOF.
func ReadFloats(r io.Reader, count int) ([]float64, error) {
	buf := make([]byte, 8*min(count, readChunk))
	var out []float64
	for len(out) < count {
		m := min(count-len(out), readChunk)
		if _, err := io.ReadFull(r, buf[:8*m]); err != nil {
			return nil, fmt.Errorf("%d of %d values read: %w", len(out), count, err)
		}
		if cap(out)-len(out) < m {
			// Double, capped at count: a valid payload ends in one
			// exactly sized slice.
			grown := make([]float64, len(out), min(count, max(2*cap(out), len(out)+m)))
			copy(grown, out)
			out = grown
		}
		for j := 0; j < m; j++ {
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(buf[8*j:])))
		}
	}
	return out, nil
}
