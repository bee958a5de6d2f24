package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// checkDecode decodes body as both request types with decodeRequest and
// with encoding/json's Decoder into a fresh value, the reference, and
// fails t unless the two agree: the same error, or else the same
// points, nil or not, row by row and bit by bit, and the same
// deadline. It reports whether parseRequest took the body on each
// endpoint.
func checkDecode(t *testing.T, body []byte) (assign, ingest bool) {
	t.Helper()
	var got, want assignRequest
	gotErr := decodeRequest(body, &got)
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	if d := decodeDiff(gotErr, wantErr, got.Points, want.Points); d != "" {
		t.Errorf("assign %q: %s", body, d)
	} else if wantErr == nil && got.DeadlineMS != want.DeadlineMS {
		t.Errorf("assign %q: deadline_ms %d, want %d", body, got.DeadlineMS, want.DeadlineMS)
	}
	var gotIn, wantIn ingestRequest
	gotErr = decodeRequest(body, &gotIn)
	wantErr = json.NewDecoder(bytes.NewReader(body)).Decode(&wantIn)
	if d := decodeDiff(gotErr, wantErr, gotIn.Points, wantIn.Points); d != "" {
		t.Errorf("ingest %q: %s", body, d)
	}
	_, _, assign = parseRequest(body, true)
	_, _, ingest = parseRequest(body, false)
	return assign, ingest
}

// decodeDiff describes how a decoding differs from the reference's, or
// returns "".
func decodeDiff(gotErr, wantErr error, got, want [][]float64) string {
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		return fmt.Sprintf("error %v, want %v", gotErr, wantErr)
	}
	if wantErr != nil {
		return ""
	}
	if len(got) != len(want) || (got == nil) != (want == nil) {
		return fmt.Sprintf("points %v, want %v", got, want)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) || (got[i] == nil) != (want[i] == nil) {
			return fmt.Sprintf("row %d: %v, want %v", i, got[i], want[i])
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				return fmt.Sprintf("row %d value %d: %g (%#x), want %g (%#x)",
					i, j, got[i][j], math.Float64bits(got[i][j]), want[i][j], math.Float64bits(want[i][j]))
			}
		}
	}
	return ""
}

// decodeEdges are bodies at the edges of parseRequest's grammar, with
// whether it takes each on /v1/assign and on /v1/ingest; every other
// body is decoded by encoding/json.
var decodeEdges = []struct {
	body           string
	assign, ingest bool
}{
	{`{"points":[[1,2]]}`, true, true},
	{`{"points":[[1,2],[3,4]],"deadline_ms":250}`, true, false},
	{`{"deadline_ms":250,"points":[[1,2],[3,4]]}`, true, false},
	{`{"deadline_ms":0,"points":[[1,2]]}`, true, false},
	{`{"points":[[1,2]],"deadline_ms":-5}`, true, false},
	{`{"points":[[1,2]],"deadline_ms":-0}`, true, false},
	{`{"points":[[1,2]],"deadline_ms":9223372036854775807}`, true, false},
	{`{"deadline_ms":7}`, true, false},
	{`{}`, true, true},
	{`{"points":[]}`, true, true},
	{`{"points":[[],[1]]}`, true, true},
	{`{"points":[[1,2,3],[4]]}`, true, true},

	// Keys: only "points" and "deadline_ms", byte for byte, once each.
	{`{"POINTS":[[1,2]]}`, false, false},
	{`{"Points":[[1,2]]}`, false, false},
	{`{"pointſ":[[1,2]]}`, false, false},
	{`{"p\u006fints":[[1,2]]}`, false, false},
	{`{"points":[[1,2]],"points":[[3,4,5]]}`, false, false},
	{`{"points":[[1,2]],"POINTS":[[3]]}`, false, false},
	{`{"deadline_ms":1,"points":[[1,2]],"deadline_ms":2}`, false, false},
	{`{"points":[[1,2]],"extra":1}`, false, false},
	{`{"extra":{"a":[1,2,3]},"points":[[1,2]]}`, false, false},
	{`{"DEADLINE_MS":9,"points":[[1,2]]}`, false, false},
	{`{"points\"":[[1,2]]}`, false, false},
	{`{"points":[[1,2]],"":1}`, false, false},

	// null anywhere.
	{`null`, false, false},
	{`{"points":null}`, false, false},
	{`{"points":[null,[1,2]]}`, false, false},
	{`{"points":[[null,2]]}`, false, false},
	{`{"points":[[1,2]],"deadline_ms":null}`, false, false},

	// Numbers: JSON's grammar, then ParseFloat's verdict.
	{`{"points":[[01]]}`, false, false},
	{`{"points":[[-01]]}`, false, false},
	{`{"points":[[00]]}`, false, false},
	{`{"points":[[1.]]}`, false, false},
	{`{"points":[[.5]]}`, false, false},
	{`{"points":[[+1]]}`, false, false},
	{`{"points":[[-]]}`, false, false},
	{`{"points":[[1e]]}`, false, false},
	{`{"points":[[1e+]]}`, false, false},
	{`{"points":[[1.5e-]]}`, false, false},
	{`{"points":[[0x10]]}`, false, false},
	{`{"points":[[Infinity]]}`, false, false},
	{`{"points":[[NaN]]}`, false, false},
	{`{"points":[["1"]]}`, false, false},
	{`{"points":[[true]]}`, false, false},
	{`{"points":[[1e309]]}`, false, false},
	{`{"points":[[-1e309]]}`, false, false},
	{`{"points":[[1.7976931348623159e308]]}`, false, false},
	{`{"points":[[-0]]}`, true, true},
	{`{"points":[[-0.0,0e0,0E-0]]}`, true, true},
	{`{"points":[[1E+2,1e-2,1.25E2]]}`, true, true},
	{`{"points":[[5e-324,-5e-324,2.2250738585072014e-308]]}`, true, true},
	{`{"points":[[1e-400]]}`, true, true},
	{`{"points":[[1.7976931348623157e308,-1.7976931348623157e308]]}`, true, true},
	{`{"points":[[0.1000000000000000055511151231257827021181583404541015625]]}`, true, true},
	{`{"points":[[123456789012345678901234567890123456789]]}`, true, true},

	// Whitespace: JSON's four bytes only.
	{" \t\n\r{ \t\n\r\"points\" \t\n\r: \t\n\r[ \t\n\r[ \t\n\r1 \t\n\r, \t\n\r2 \t\n\r] \t\n\r, \t\n\r[ \t\n\r] \t\n\r] \t\n\r, \t\n\r\"deadline_ms\" \t\n\r: \t\n\r3 \t\n\r} \t\n\r", true, false},
	{"{\"points\":[[1,\f2]]}", false, false},
	{"{\"points\":[[1,\v2]]}", false, false},
	{"\xef\xbb\xbf{\"points\":[[1,2]]}", false, false},
	{"{\"points\":[[1,\u00a02]]}", false, false},

	// Garbage after the closing brace: encoding/json's Decoder stops
	// at the end of the value.
	{`{"points":[[1,2]]}x`, false, false},
	{`{"points":[[1,2]]} {`, false, false},
	{`{"points":[[1,2]]}}`, false, false},
	{"{\"points\":[[1,2]]}\x00", false, false},

	// The deadline: an integer in int64's range.
	{`{"points":[[1,2]],"deadline_ms":1.0}`, false, false},
	{`{"points":[[1,2]],"deadline_ms":1e3}`, false, false},
	{`{"points":[[1,2]],"deadline_ms":9223372036854775808}`, false, false},
	{`{"points":[[1,2]],"deadline_ms":-9223372036854775809}`, false, false},
	{`{"points":[[1,2]],"deadline_ms":"5"}`, false, false},
	{`{"points":[[1,2]],"deadline_ms":[5]}`, false, false},

	// Out of shape.
	{``, false, false},
	{" \t\n\r", false, false},
	{`[[1,2]]`, false, false},
	{`{"points":[1,2]}`, false, false},
	{`{"points":[[[1]]]}`, false, false},
	{`{"points":{"a":1}}`, false, false},
	{`{"points":[[1,2]],}`, false, false},
	{`{"points":[[1,2],]}`, false, false},
	{`{"points":[[1,2,]]}`, false, false},
	{`{"points":[[1 2]]}`, false, false},
	{`{"points":[[1,2]]`, false, false},
	{`{"points":[[1,2]`, false, false},
	{`{"points":[[1,`, false, false},
	{`{"points"[[1,2]]}`, false, false},
	{`{"points:[[1,2]]}`, false, false},
	{`{points:[[1,2]]}`, false, false},
	{`{,"points":[[1,2]]}`, false, false},
}

// TestDecodeMatchesEncodingJSON holds decodeRequest to encoding/json
// on the fuzz seeds and the grammar's edges, on both endpoints, and
// checks which edges the one-pass parser takes.
func TestDecodeMatchesEncodingJSON(t *testing.T) {
	for _, body := range fuzzSeeds {
		checkDecode(t, []byte(body))
	}
	for _, e := range decodeEdges {
		assign, ingest := checkDecode(t, []byte(e.body))
		if assign != e.assign || ingest != e.ingest {
			t.Errorf("%q: parsed in one pass on assign %v, ingest %v; want %v, %v", e.body, assign, ingest, e.assign, e.ingest)
		}
	}
}

// TestReadBodySizing: a body as long as it declares is read into one
// buffer with no room to spare, and a declared length reserves at most
// bodyReserve before the bytes arrive.
func TestReadBodySizing(t *testing.T) {
	body := bytes.Repeat([]byte("7"), 20_000)
	// The declared length, none, too long a one and too short a one.
	for _, declared := range []int64{int64(len(body)), -1, 8 << 20, 0} {
		got, err := readBody(bytes.NewReader(body), declared, 1<<40)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("declared %d: read %d bytes, %v", declared, len(got), err)
		}
		if declared == int64(len(body)) && cap(got) != len(body)+1 {
			t.Errorf("declared %d: buffer of %d bytes, want %d", declared, cap(got), len(body)+1)
		}
	}
	got, err := readBody(bytes.NewReader(nil), 8<<20, 1<<40)
	if err != nil || len(got) != 0 || cap(got) > bodyReserve+1 {
		t.Errorf("8 MiB declared, nothing sent: %d bytes read into %d, %v; want at most %d reserved", len(got), cap(got), err, bodyReserve+1)
	}
}

// marshalledValue draws a coordinate for a marshalled body: signed
// zeros, subnormals, values near the float64 range's ends, small
// integers, Gaussians at several scales and finite bit patterns.
func marshalledValue(rng *rand.Rand) float64 {
	sign := float64(1 - 2*rng.Intn(2))
	switch rng.Intn(8) {
	case 0:
		return math.Copysign(0, sign)
	case 1:
		return sign * math.Float64frombits(1+uint64(rng.Int63n(1<<52-1)))
	case 2:
		return sign * []float64{1e308, math.MaxFloat64, math.SmallestNonzeroFloat64, 0x1p-1022}[rng.Intn(4)]
	case 3:
		return float64(rng.Intn(2001) - 1000)
	case 4:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(41)-20))
	case 5:
		for {
			if x := math.Float64frombits(rng.Uint64()); !math.IsNaN(x) && !math.IsInf(x, 0) {
				return x
			}
		}
	default:
		return rng.NormFloat64()
	}
}

// TestDecodeTakesMarshalledTraffic: the bodies json.Marshal builds for
// the benchmark's {"points":…} map, kmload's {"deadline_ms":…,
// "points":…} map and the two request structs are all parsed in one
// pass, to encoding/json's values, so the fast path cannot be lost
// without this test failing.
func TestDecodeTakesMarshalledTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5EED))
	for i := 0; i < 24; i++ {
		points := make([][]float64, 1+rng.Intn(8))
		d := 1 + rng.Intn(32)
		for p := range points {
			points[p] = make([]float64, d)
			for j := range points[p] {
				points[p][j] = marshalledValue(rng)
			}
		}
		deadlineMS := []int64{0, 1, 250, math.MaxInt64}[rng.Intn(4)]
		for _, c := range []struct {
			name   string
			v      any
			ingest bool
		}{
			{"bench", map[string]any{"points": points}, true},
			{"kmload", map[string]any{"points": points, "deadline_ms": deadlineMS}, false},
			{"assignRequest", assignRequest{Points: points, DeadlineMS: deadlineMS}, deadlineMS == 0},
			{"ingestRequest", ingestRequest{Points: points}, true},
		} {
			body, err := json.Marshal(c.v)
			if err != nil {
				t.Fatal(err)
			}
			if assign, ingest := checkDecode(t, body); !assign || ingest != c.ingest {
				t.Fatalf("%s body %q: parsed in one pass on assign %v, ingest %v; want true, %v", c.name, body, assign, ingest, c.ingest)
			}
		}
	}
}

// BenchmarkDecodeBody decodes a body of the serve-read benchmark's
// shape, 16 points of d=64 as json.Marshal writes them, with the
// one-pass parser and with encoding/json.
func BenchmarkDecodeBody(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	points := make([][]float64, 16)
	for p := range points {
		points[p] = make([]float64, 64)
		for j := range points[p] {
			points[p][j] = rng.NormFloat64() * 2
		}
	}
	body, err := json.Marshal(map[string]any{"points": points})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		decode func(v *assignRequest) error
	}{
		{"onepass", func(v *assignRequest) error { return decodeRequest(body, v) }},
		{"encoding-json", func(v *assignRequest) error { return json.NewDecoder(bytes.NewReader(body)).Decode(v) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var req assignRequest
				if err := c.decode(&req); err != nil || len(req.Points) != 16 {
					b.Fatalf("decoded %d points: %v", len(req.Points), err)
				}
			}
		})
	}
}
