package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary matrix files carry a small self-describing header (magic,
// version, n, d as little-endian uint32) followed by n·d float64
// values in row-major order — the same layout the centroid model
// format uses, at dataset scale.
const (
	matrixMagic   = 0x53574d58 // "SWMX"
	matrixVersion = 1
)

// WriteBinary streams src into the binary matrix format. Samples are
// generated (or copied) one at a time, so arbitrarily large streaming
// sources can be exported as long as the destination has space.
func WriteBinary(w io.Writer, src Source) error {
	bw := bufio.NewWriter(w)
	hdr := []uint32{matrixMagic, matrixVersion, uint32(src.N()), uint32(src.D())}
	if err := binary.Write(bw, binary.LittleEndian, hdr); err != nil {
		return fmt.Errorf("dataset: writing binary header: %w", err)
	}
	buf := make([]float64, src.D())
	for i := 0; i < src.N(); i++ {
		src.Sample(i, buf)
		if err := binary.Write(bw, binary.LittleEndian, buf); err != nil {
			return fmt.Errorf("dataset: writing sample %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadBinary loads a binary matrix file fully into memory. Every
// value must be finite.
func ReadBinary(r io.Reader) (*Matrix, error) {
	br := bufio.NewReader(r)
	var hdr [4]uint32
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("dataset: reading binary header: %w", err)
	}
	if hdr[0] != matrixMagic {
		return nil, fmt.Errorf("dataset: not a binary matrix file (magic %#x)", hdr[0])
	}
	if hdr[1] != matrixVersion {
		return nil, fmt.Errorf("dataset: unsupported binary matrix version %d", hdr[1])
	}
	n, d := int(hdr[2]), int(hdr[3])
	if n < 1 || d < 1 || n > 1<<31 || d > 1<<28 {
		return nil, fmt.Errorf("dataset: implausible binary matrix shape %dx%d", n, d)
	}
	data, err := ReadFloats(br, n*d)
	if err != nil {
		return nil, fmt.Errorf("dataset: reading binary payload: %w", err)
	}
	for i, v := range data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("dataset: binary payload element %d (row %d, column %d) is %g, want a finite value",
				i, i/d, i%d, v)
		}
	}
	return &Matrix{n: n, d: d, data: data}, nil
}

// readChunk is the most values ReadFloats decodes per read: 64 KiB.
const readChunk = 1 << 13

// ReadFloats reads count little-endian float64 values, the payload
// layout of binary matrix files and centroid model files alike. It
// reads in chunks and grows the result only as values arrive, so a
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
