package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/dataset"
)

// Centroid model files use a small self-describing binary format:
// magic, version, k, d as little-endian uint32 followed by k·d
// float64 values. Version 2 appends a CRC-32 (IEEE) of the header and
// payload, so restores detect torn or corrupted checkpoint files
// instead of decoding garbage; version 1 (no checksum) is still read —
// it is the in-memory checkpoint format the simulated engines price.
const (
	modelMagic           = 0x53574b4d // "SWKM"
	modelVersion         = 1
	modelVersionChecksum = 2
)

// ErrModelCorrupt marks a model file rejected as truncated or
// corrupted; errors.Is(err, ErrModelCorrupt) identifies it through
// wrapping so callers can fall back to an older checkpoint.
var ErrModelCorrupt = errors.New("core: centroid model file is truncated or corrupt")

// ModelBytes returns the serialized size of a k-by-d model in the
// binary format: the four-word header plus the row-major float64
// payload. The resilient engine prices checkpoint I/O with it.
func ModelBytes(k, d int) int64 { return int64(16 + k*d*8) }

// SaveCentroids writes a k-by-d centroid matrix in the binary model
// format.
func SaveCentroids(w io.Writer, cents []float64, k, d int) error {
	if k < 1 || d < 1 || len(cents) != k*d {
		return fmt.Errorf("core: centroid matrix %d does not match k=%d d=%d", len(cents), k, d)
	}
	hdr := []uint32{modelMagic, modelVersion, uint32(k), uint32(d)}
	if err := binary.Write(w, binary.LittleEndian, hdr); err != nil {
		return fmt.Errorf("core: writing model header: %w", err)
	}
	if err := binary.Write(w, binary.LittleEndian, cents); err != nil {
		return fmt.Errorf("core: writing model payload: %w", err)
	}
	return nil
}

// LoadCentroids reads a centroid matrix written by SaveCentroids (v1)
// or SaveCentroidsFile (v2, checksummed). Truncated or corrupted input
// is rejected with an error wrapping ErrModelCorrupt; a model holding
// a NaN or ±Inf is rejected too.
func LoadCentroids(r io.Reader) (cents []float64, k, d int, err error) {
	var hdr [4]uint32
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return nil, 0, 0, fmt.Errorf("core: reading model header (%w): %w", err, ErrModelCorrupt)
	}
	if hdr[0] != modelMagic {
		return nil, 0, 0, fmt.Errorf("core: not a centroid model file (magic %#x)", hdr[0])
	}
	if hdr[1] != modelVersion && hdr[1] != modelVersionChecksum {
		return nil, 0, 0, fmt.Errorf("core: unsupported model version %d", hdr[1])
	}
	k, d = int(hdr[2]), int(hdr[3])
	if k < 1 || d < 1 || k > 1<<28 || d > 1<<28 {
		return nil, 0, 0, fmt.Errorf("core: implausible model shape %dx%d", k, d)
	}
	payload := r
	crc := crc32.NewIEEE()
	if hdr[1] == modelVersionChecksum {
		_ = binary.Write(crc, binary.LittleEndian, hdr[:])
		payload = io.TeeReader(r, crc)
	}
	// The header's shape is not trusted for an allocation: the payload
	// is read in bounded chunks as it arrives.
	cents, err = dataset.ReadFloats(payload, k*d)
	if err != nil {
		return nil, 0, 0, fmt.Errorf(
			"core: model payload for shape %dx%d is short (%w) — the writer likely died mid-write; restore an older checkpoint: %w",
			k, d, err, ErrModelCorrupt)
	}
	if hdr[1] == modelVersionChecksum {
		var want uint32
		if err := binary.Read(r, binary.LittleEndian, &want); err != nil {
			return nil, 0, 0, fmt.Errorf("core: model checksum is missing (%w): %w", err, ErrModelCorrupt)
		}
		if got := crc.Sum32(); got != want {
			return nil, 0, 0, fmt.Errorf(
				"core: model checksum mismatch (have %#x, want %#x) — the file is corrupt; restore an older checkpoint: %w",
				got, want, ErrModelCorrupt)
		}
	}
	// Checked after the checksum, so a corrupt file reports corruption.
	for i, v := range cents {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, 0, 0, fmt.Errorf(
				"core: model element %d (centroid %d, dimension %d) is %g — the model diverged; restore an older checkpoint",
				i, i/d, i%d, v)
		}
	}
	return cents, k, d, nil
}

// SaveCentroidsFile writes a checkpoint crash-consistently: the
// checksummed v2 model is written to a temporary file in the target's
// directory, synced to stable storage, and renamed into place, so a
// writer death at any point leaves either the old complete file or the
// new complete file — never a torn checkpoint.
func SaveCentroidsFile(path string, cents []float64, k, d int) (err error) {
	if k < 1 || d < 1 || len(cents) != k*d {
		return fmt.Errorf("core: centroid matrix %d does not match k=%d d=%d", len(cents), k, d)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("core: creating checkpoint temp file: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	hdr := []uint32{modelMagic, modelVersionChecksum, uint32(k), uint32(d)}
	crc := crc32.NewIEEE()
	w := io.MultiWriter(tmp, crc)
	if err := binary.Write(w, binary.LittleEndian, hdr); err != nil {
		return fmt.Errorf("core: writing checkpoint header: %w", err)
	}
	if err := binary.Write(w, binary.LittleEndian, cents); err != nil {
		return fmt.Errorf("core: writing checkpoint payload: %w", err)
	}
	if err := binary.Write(tmp, binary.LittleEndian, crc.Sum32()); err != nil {
		return fmt.Errorf("core: writing checkpoint checksum: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("core: syncing checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("core: closing checkpoint temp file: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("core: publishing checkpoint: %w", err)
	}
	// Best effort: persist the rename itself. Not all platforms support
	// syncing a directory, so errors are ignored.
	if df, derr := os.Open(dir); derr == nil {
		_ = df.Sync()
		df.Close()
	}
	return nil
}

// LoadCentroidsFile restores a checkpoint written by SaveCentroidsFile
// (it also accepts legacy v1 files written through SaveCentroids).
// Truncated, corrupted, or trailing-garbage files are rejected with an
// actionable error wrapping ErrModelCorrupt.
func LoadCentroidsFile(path string) (cents []float64, k, d int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("core: opening model %s: %w", path, err)
	}
	defer f.Close()
	cents, k, d, err = LoadCentroids(f)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("core: restoring model %s: %w", path, err)
	}
	// A well-formed prefix followed by trailing bytes is still not a
	// checkpoint this writer produced — reject it rather than silently
	// ignoring data.
	var extra [1]byte
	if n, _ := f.Read(extra[:]); n != 0 {
		return nil, 0, 0, fmt.Errorf(
			"core: restoring model %s: trailing bytes after the %dx%d payload: %w",
			path, k, d, ErrModelCorrupt)
	}
	return cents, k, d, nil
}

// Summary is the JSON-friendly digest of a Result, for harness logs
// and downstream plotting.
type Summary struct {
	Level       string    `json:"level"`
	Plan        string    `json:"plan"`
	K           int       `json:"k"`
	D           int       `json:"d"`
	N           int       `json:"n"`
	Iters       int       `json:"iters"`
	Converged   bool      `json:"converged"`
	MeanIterSec float64   `json:"mean_iter_seconds"`
	IterSec     []float64 `json:"iter_seconds"`
	DMABytes    int64     `json:"dma_bytes"`
	RegBytes    int64     `json:"reg_bytes"`
	NetBytes    int64     `json:"net_bytes"`
	Flops       int64     `json:"flops"`
	// Phases is the whole-run sum of the per-iteration cost-category
	// breakdown, present whenever the run recorded phases.
	Phases *SummaryPhases `json:"phase_seconds,omitempty"`
	// Recovery mirrors Result.Recovery, present only for resilient runs.
	Recovery *SummaryRecovery `json:"recovery,omitempty"`
}

// SummaryPhases aggregates Result.Phases into whole-run seconds per
// cost category.
type SummaryPhases struct {
	ReadSec    float64 `json:"read_seconds"`
	ComputeSec float64 `json:"compute_seconds"`
	RegSec     float64 `json:"reg_seconds"`
	OtherSec   float64 `json:"other_seconds"`
}

// SummaryRecovery is the JSON shape of the fault-recovery report.
type SummaryRecovery struct {
	Replans        int     `json:"replans"`
	LostRanks      []int   `json:"lost_ranks"`
	DroppedSamples int     `json:"dropped_samples"`
	Checkpoints    int     `json:"checkpoints"`
	CheckpointSec  float64 `json:"checkpoint_seconds"`
	RestoreSec     float64 `json:"restore_seconds"`
	ReplanSec      float64 `json:"replan_seconds"`
	RedoSec        float64 `json:"redo_seconds"`
	RetrySec       float64 `json:"retry_seconds"`
	OverheadSec    float64 `json:"overhead_seconds"`
}

// WriteSummary emits the result digest as indented JSON.
func (r *Result) WriteSummary(w io.Writer) error {
	s := Summary{
		Level:       r.Plan.Level.String(),
		Plan:        r.Plan.String(),
		K:           r.K,
		D:           r.D,
		N:           r.Plan.N,
		Iters:       r.Iters,
		Converged:   r.Converged,
		MeanIterSec: r.MeanIterTime(),
		IterSec:     r.IterTimes,
		DMABytes:    r.Traffic.DMABytes,
		RegBytes:    r.Traffic.RegBytes,
		NetBytes:    r.Traffic.NetBytes,
		Flops:       r.Traffic.Flops,
	}
	if len(r.Phases) > 0 {
		p := &SummaryPhases{}
		for _, ph := range r.Phases {
			p.ReadSec += ph.Read
			p.ComputeSec += ph.Compute
			p.RegSec += ph.Reg
			p.OtherSec += ph.Other
		}
		s.Phases = p
	}
	if rec := r.Recovery; rec != nil {
		s.Recovery = &SummaryRecovery{
			Replans:        rec.Replans,
			LostRanks:      rec.LostRanks,
			DroppedSamples: rec.DroppedSamples,
			Checkpoints:    rec.Checkpoints,
			CheckpointSec:  rec.CheckpointSeconds,
			RestoreSec:     rec.RestoreSeconds,
			ReplanSec:      rec.ReplanSeconds,
			RedoSec:        rec.RedoSeconds,
			RetrySec:       rec.RetrySeconds,
			OverheadSec:    rec.OverheadSeconds(),
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
