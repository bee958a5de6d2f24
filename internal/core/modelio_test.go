package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/trace"
)

func TestSaveLoadCentroids(t *testing.T) {
	cents := []float64{1.5, -2.25, 3.125, 0, 42, -1e-9}
	var buf bytes.Buffer
	if err := SaveCentroids(&buf, cents, 2, 3); err != nil {
		t.Fatal(err)
	}
	got, k, d, err := LoadCentroids(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if k != 2 || d != 3 {
		t.Fatalf("shape %dx%d", k, d)
	}
	for i := range cents {
		if got[i] != cents[i] {
			t.Fatalf("element %d = %g, want %g", i, got[i], cents[i])
		}
	}
}

func TestSaveCentroidsValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveCentroids(&buf, []float64{1, 2, 3}, 2, 2); err == nil {
		t.Error("shape mismatch accepted")
	}
	if err := SaveCentroids(&buf, nil, 0, 0); err == nil {
		t.Error("empty matrix accepted")
	}
}

func TestLoadCentroidsRejectsGarbage(t *testing.T) {
	if _, _, _, err := LoadCentroids(strings.NewReader("not a model")); err == nil {
		t.Error("garbage accepted")
	}
	// Wrong magic.
	var buf bytes.Buffer
	buf.Write([]byte{1, 2, 3, 4, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0})
	if _, _, _, err := LoadCentroids(&buf); err == nil {
		t.Error("wrong magic accepted")
	}
	// Valid header, truncated payload.
	buf.Reset()
	if err := SaveCentroids(&buf, []float64{1, 2}, 1, 2); err != nil {
		t.Fatal(err)
	}
	truncated := bytes.NewReader(buf.Bytes()[:buf.Len()-4])
	if _, _, _, err := LoadCentroids(truncated); err == nil {
		t.Error("truncated payload accepted")
	}
	// A diverged model, named by its first bad element.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		buf.Reset()
		if err := SaveCentroids(&buf, []float64{1, 2, 3, v, 5, math.Inf(1)}, 3, 2); err != nil {
			t.Fatal(err)
		}
		_, _, _, err := LoadCentroids(&buf)
		if err == nil || !strings.Contains(err.Error(), "element 3") {
			t.Errorf("model with %g: error %v, want one naming element 3", v, err)
		}
	}
}

// TestLoadCentroidsBareHeader: a header alone must not size an
// allocation. Whatever shape it claims, it is rejected as truncated
// after at most one 64 KiB read buffer was allocated.
func TestLoadCentroidsBareHeader(t *testing.T) {
	for _, shape := range [][2]uint32{{1 << 28, 1 << 28}, {1 << 12, 1 << 12}} {
		for _, version := range []uint32{modelVersion, modelVersionChecksum} {
			var hdr bytes.Buffer
			_ = binary.Write(&hdr, binary.LittleEndian, []uint32{modelMagic, version, shape[0], shape[1]})
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, _, err := LoadCentroids(bytes.NewReader(hdr.Bytes()))
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrModelCorrupt) {
				t.Errorf("v%d %dx%d header without payload: error %v, want ErrModelCorrupt",
					version, shape[0], shape[1], err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Errorf("v%d %dx%d header without payload allocated %d bytes, want under 1 MB",
					version, shape[0], shape[1], got)
			}
		}
	}
}

func TestSaveLoadCentroidsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.swkm")
	cents := []float64{1.5, -2.25, 3.125, 0, 42, -1e-9}
	if err := SaveCentroidsFile(path, cents, 2, 3); err != nil {
		t.Fatal(err)
	}
	got, k, d, err := LoadCentroidsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if k != 2 || d != 3 {
		t.Fatalf("shape %dx%d", k, d)
	}
	for i := range cents {
		if got[i] != cents[i] {
			t.Fatalf("element %d = %g, want %g", i, got[i], cents[i])
		}
	}
	// The write must be atomic: no temp files left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after save, want just the model", len(entries))
	}
	// A replacement save over the same path keeps the invariant.
	if err := SaveCentroidsFile(path, []float64{9, 9, 9, 9, 9, 9}, 2, 3); err != nil {
		t.Fatal(err)
	}
	got, _, _, err = LoadCentroidsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 9 {
		t.Fatalf("replacement save not visible: %v", got)
	}
}

func TestLoadCentroidsFileRejectsTruncation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.swkm")
	cents := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	if err := SaveCentroidsFile(path, cents, 4, 2); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Every proper prefix simulates a torn legacy write (the atomic
	// writer can no longer produce one, but old files and foreign
	// writers can): all must be rejected, and the payload-truncation
	// message must be actionable.
	for _, cut := range []int{len(whole) - 1, len(whole) - 5, 20, 16, 7, 0} {
		torn := filepath.Join(dir, "torn.swkm")
		if err := os.WriteFile(torn, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, _, err := LoadCentroidsFile(torn)
		if err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		if !errors.Is(err, ErrModelCorrupt) {
			t.Fatalf("truncation at %d: error %v does not wrap ErrModelCorrupt", cut, err)
		}
	}
	if _, _, _, err := LoadCentroidsFile(filepath.Join(dir, "missing.swkm")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestLoadCentroidsFileRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.swkm")
	if err := SaveCentroidsFile(path, []float64{1, 2, 3, 4}, 2, 2); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A bit flip inside the payload keeps the length intact; only the
	// checksum can catch it.
	flipped := append([]byte(nil), whole...)
	flipped[16+3] ^= 0x40
	bad := filepath.Join(dir, "flipped.swkm")
	if err := os.WriteFile(bad, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = LoadCentroidsFile(bad)
	if err == nil {
		t.Fatal("bit-flipped payload accepted")
	}
	if !errors.Is(err, ErrModelCorrupt) {
		t.Fatalf("error %v does not wrap ErrModelCorrupt", err)
	}
	if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("error %v does not mention the checksum", err)
	}
	// Trailing garbage after a valid model is also not a checkpoint
	// this writer produced.
	trailing := filepath.Join(dir, "trailing.swkm")
	if err := os.WriteFile(trailing, append(append([]byte(nil), whole...), 0xFF), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := LoadCentroidsFile(trailing); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	// An intact checksum does not make a diverged model loadable.
	diverged := filepath.Join(dir, "diverged.swkm")
	if err := SaveCentroidsFile(diverged, []float64{1, math.NaN(), 3, 4}, 2, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := LoadCentroidsFile(diverged); err == nil || !strings.Contains(err.Error(), "element 1") {
		t.Fatalf("NaN model: error %v, want one naming element 1", err)
	}
}

func TestLoadCentroidsFileAcceptsLegacyV1(t *testing.T) {
	// Files written by the pre-checksum SaveCentroids stream format
	// must keep loading.
	path := filepath.Join(t.TempDir(), "legacy.swkm")
	var buf bytes.Buffer
	cents := []float64{3, 1, 4, 1}
	if err := SaveCentroids(&buf, cents, 2, 2); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, k, d, err := LoadCentroidsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if k != 2 || d != 2 || got[2] != 4 {
		t.Fatalf("legacy load got %v (%dx%d)", got, k, d)
	}
}

func TestWriteSummary(t *testing.T) {
	g := mixture(t, 100, 4, 2)
	res, err := Run(Config{Spec: machine.MustSpec(1), Level: Level1, K: 2, MaxIters: 3, Seed: 1, Stats: trace.NewStats()}, g)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	var s Summary
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("summary is not valid JSON: %v", err)
	}
	if s.K != 2 || s.D != 4 || s.N != 100 {
		t.Errorf("summary shape: %+v", s)
	}
	if s.MeanIterSec <= 0 || len(s.IterSec) != s.Iters {
		t.Errorf("summary timing: %+v", s)
	}
	if s.DMABytes == 0 || s.Flops == 0 {
		t.Errorf("summary traffic: %+v", s)
	}
}

// TestWriteSummarySchema asserts the exact JSON key set of the digest,
// including the per-phase seconds breakdown and — for resilient runs —
// the recovery counters, so downstream plotting scripts can rely on
// the field names.
func TestWriteSummarySchema(t *testing.T) {
	g := mixture(t, 100, 4, 2)
	base := Config{Spec: machine.MustSpec(1), Level: Level1, K: 2, MaxIters: 4, Seed: 1, Stats: trace.NewStats()}

	decode := func(cfg Config) map[string]json.RawMessage {
		t.Helper()
		res, err := Run(cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteSummary(&buf); err != nil {
			t.Fatal(err)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
			t.Fatalf("summary is not valid JSON: %v", err)
		}
		return m
	}
	keysOf := func(m map[string]json.RawMessage) map[string]bool {
		out := make(map[string]bool, len(m))
		for k := range m {
			out[k] = true
		}
		return out
	}

	faultFree := decode(base)
	baseKeys := []string{
		"level", "plan", "k", "d", "n", "iters", "converged",
		"mean_iter_seconds", "iter_seconds",
		"dma_bytes", "reg_bytes", "net_bytes", "flops", "phase_seconds",
	}
	got := keysOf(faultFree)
	for _, k := range baseKeys {
		if !got[k] {
			t.Errorf("fault-free summary missing key %q", k)
		}
		delete(got, k)
	}
	for k := range got {
		t.Errorf("fault-free summary has unexpected key %q", k)
	}
	var phases map[string]float64
	if err := json.Unmarshal(faultFree["phase_seconds"], &phases); err != nil {
		t.Fatalf("phase_seconds: %v", err)
	}
	for _, k := range []string{"read_seconds", "compute_seconds", "reg_seconds", "other_seconds"} {
		if _, ok := phases[k]; !ok {
			t.Errorf("phase_seconds missing %q (got %v)", k, phases)
		}
	}
	total := 0.0
	for _, v := range phases {
		total += v
	}
	if total <= 0 {
		t.Errorf("phase seconds sum to %g, want positive", total)
	}

	resilient := base
	resilient.Stats = trace.NewStats()
	resilient.Faults = fault.Plan{Crashes: []fault.Crash{{CG: 1, At: 1}}}
	resilient.CheckpointInterval = 2
	faulty := decode(resilient)
	raw, ok := faulty["recovery"]
	if !ok {
		t.Fatal("resilient summary missing recovery key")
	}
	var recKeys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &recKeys); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	for _, k := range []string{
		"replans", "lost_ranks", "dropped_samples", "checkpoints",
		"checkpoint_seconds", "restore_seconds", "replan_seconds",
		"redo_seconds", "retry_seconds", "overhead_seconds",
	} {
		if _, ok := recKeys[k]; !ok {
			t.Errorf("recovery missing key %q", k)
		}
	}
}

func TestModelRoundTripThroughRun(t *testing.T) {
	// Save a trained model, load it, and verify assignments computed
	// from the loaded centroids match the original run.
	g := mixture(t, 200, 6, 3)
	res, err := Run(Config{Spec: machine.MustSpec(1), Level: Level1, K: 3, MaxIters: 20, Seed: 2}, g)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveCentroids(&buf, res.Centroids, res.K, res.D); err != nil {
		t.Fatal(err)
	}
	cents, k, d, err := LoadCentroids(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if k != 3 || d != 6 {
		t.Fatalf("shape %dx%d", k, d)
	}
	x := make([]float64, d)
	for i := 0; i < g.N(); i++ {
		g.Sample(i, x)
		j, _ := argminDistance(x, cents, d)
		if j != res.Assign[i] {
			t.Fatalf("loaded model assigns sample %d to %d, original %d", i, j, res.Assign[i])
		}
	}
}

// FuzzLoadCentroids drives the model loader with arbitrary bytes. No
// input may panic or allocate by the header's word alone, and whatever
// loads is a finite model that SaveCentroids re-encodes and
// LoadCentroids reads back to the same shape and bits.
func FuzzLoadCentroids(f *testing.F) {
	cents := []float64{1.5, -2.25, 3.125, 0, math.Copysign(0, -1), 1e-308}
	var v1 bytes.Buffer
	if err := SaveCentroids(&v1, cents, 2, 3); err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "model.swkm")
	if err := SaveCentroidsFile(path, cents, 3, 2); err != nil {
		f.Fatal(err)
	}
	v2, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	for _, whole := range [][]byte{v1.Bytes(), v2} {
		for _, cut := range []int{len(whole), len(whole) - 1, len(whole) - 4, 24, 17, 16, 8, 0} {
			f.Add(whole[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, k, d, err := LoadCentroids(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(got) != k*d {
			t.Fatalf("loaded %d values for shape %dx%d", len(got), k, d)
		}
		for i, v := range got {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted non-finite element %d = %g", i, v)
			}
		}
		var buf bytes.Buffer
		if err := SaveCentroids(&buf, got, k, d); err != nil {
			t.Fatalf("re-encoding an accepted %dx%d model: %v", k, d, err)
		}
		again, k2, d2, err := LoadCentroids(&buf)
		if err != nil {
			t.Fatalf("re-encoded model does not load: %v", err)
		}
		if k2 != k || d2 != d {
			t.Fatalf("shape %dx%d re-loaded as %dx%d", k, d, k2, d2)
		}
		for i := range got {
			if math.Float64bits(again[i]) != math.Float64bits(got[i]) {
				t.Fatalf("element %d: %x re-loaded as %x", i, math.Float64bits(got[i]), math.Float64bits(again[i]))
			}
		}
	})
}
