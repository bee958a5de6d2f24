package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
)

// bodyReserve is the most buffer a body's declared length reserves
// before its bytes arrive. A client that declares a long body and
// sends nothing holds this much, not its bound (67 MB at d=4,096);
// a longer body grows the buffer as it is read.
const bodyReserve = 64 << 10

// readBody reads r, the request body under http.MaxBytesReader's bound
// of limit bytes, to EOF into one buffer. The buffer holds the declared
// length plus the byte the final read needs, never more than limit+1
// or bodyReserve+1 bytes up front, so a body that is as long as it
// says is read without growing it. A body of unknown length starts
// from bytes.MinRead.
func readBody(r io.Reader, contentLength, limit int64) ([]byte, error) {
	size := int64(bytes.MinRead)
	if contentLength >= 0 {
		size = min(contentLength, limit, bodyReserve) + 1
	}
	buf := make([]byte, 0, size)
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// decodeRequest decodes body into v, a fresh *assignRequest or
// *ingestRequest: with parseRequest when the body is in its grammar
// (docs/SERVING.md, "Request bodies"), else with encoding/json's
// Decoder, the reference, whose value or error is then the answer.
func decodeRequest(body []byte, v any) error {
	switch req := v.(type) {
	case *assignRequest:
		if points, deadlineMS, ok := parseRequest(body, true); ok {
			req.Points, req.DeadlineMS = points, deadlineMS
			return nil
		}
	case *ingestRequest:
		if points, _, ok := parseRequest(body, false); ok {
			req.Points = points
			return nil
		}
	}
	return json.NewDecoder(bytes.NewReader(body)).Decode(v)
}

// parseRequest parses a body of the shape json.Marshal gives a
// request: one object whose keys are byte for byte "points" and, where
// deadline is set, "deadline_ms", each at most once and in either
// order, with points an array of arrays of numbers and deadline_ms an
// integer, and nothing but JSON whitespace around the tokens. Each
// number must match JSON's grammar and is converted by the call
// encoding/json makes, strconv.ParseFloat(s, 64) for a coordinate and
// strconv.ParseInt(s, 10, 64) for the deadline, so every body it takes
// decodes to encoding/json's value bit for bit. The points are row
// views of one flat array. ok is false for every other body, among
// them all that encoding/json refuses.
func parseRequest(body []byte, deadline bool) (points [][]float64, deadlineMS int64, ok bool) {
	p := reqParser{b: body}
	var sawPoints, sawDeadline bool
	ok = p.eat('{') && p.list('}', func() bool {
		switch key := p.key(); {
		case string(key) == "points" && !sawPoints:
			sawPoints = true
			var parsed bool
			points, parsed = p.points()
			return parsed
		case string(key) == "deadline_ms" && deadline && !sawDeadline:
			sawDeadline = true
			tok, isNumber := p.number()
			if !isNumber {
				return false
			}
			var err error
			deadlineMS, err = strconv.ParseInt(string(tok), 10, 64)
			return err == nil
		}
		return false
	})
	p.space()
	if !ok || p.i != len(p.b) {
		return nil, 0, false
	}
	return points, deadlineMS, true
}

// reqParser is parseRequest's cursor over the body.
type reqParser struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (p *reqParser) space() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// eat skips whitespace and then c, and reports whether c was there.
func (p *reqParser) eat(c byte) bool {
	p.space()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// list reads the comma-separated elements of an array or object whose
// opening bracket has been read, calling elem for each, and then the
// closing bracket.
func (p *reqParser) list(closing byte, elem func() bool) bool {
	if p.eat(closing) {
		return true
	}
	for elem() {
		if !p.eat(',') {
			return p.eat(closing)
		}
	}
	return false
}

// key reads an object key and its colon and returns the bytes between
// the quotes, or nil. A key holding an escape does not equal either
// key parseRequest takes, so it need not be unescaped.
func (p *reqParser) key() []byte {
	if !p.eat('"') {
		return nil
	}
	n := bytes.IndexByte(p.b[p.i:], '"')
	if n < 0 {
		return nil
	}
	key := p.b[p.i : p.i+n]
	p.i += n + 1
	if !p.eat(':') {
		return nil
	}
	return key
}

// points reads an array of arrays of numbers into rows over one flat
// array. The flat array is sized for one number per 16 body bytes and
// grows past that; the rows are cut from it once it stops moving.
func (p *reqParser) points() ([][]float64, bool) {
	flat := make([]float64, 0, len(p.b)/16+1)
	var ends []int
	ok := p.eat('[') && p.list(']', func() bool {
		row := p.eat('[') && p.list(']', func() bool {
			tok, isNumber := p.number()
			if !isNumber {
				return false
			}
			x, err := strconv.ParseFloat(string(tok), 64)
			flat = append(flat, x)
			return err == nil
		})
		ends = append(ends, len(flat))
		return row
	})
	if !ok {
		return nil, false
	}
	rows := make([][]float64, len(ends))
	start := 0
	for i, end := range ends {
		rows[i] = flat[start:end:end]
		start = end
	}
	return rows, true
}

// number skips whitespace and reads one number of JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its text.
func (p *reqParser) number() ([]byte, bool) {
	p.space()
	b, i := p.b, p.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	tok := b[p.i:i]
	p.i = i
	return tok, true
}

// digits returns the index of the first byte at or after i in b that
// is not a decimal digit.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
