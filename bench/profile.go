package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
)

// cpuLayers are the buckets a traced run's CPU time is charged to: the
// repository's modules the workloads run, "other" for the rest of the
// module (stream, lint, fault and the rest), "bench"
// for the benchmark's own code (load generation, verification) and
// "runtime" for samples with no module frame on the stack (scheduler,
// garbage collector, net/http outside the handlers).
var cpuLayers = []string{
	"core", "dataset", "mpi", "sched", "vclock", "obs", "trace",
	"sw26010", "regcomm", "dma", "ldm", "costmodel", "perfmodel", "netmodel",
	"serve", "other", "bench", "runtime",
}

// profile runs fn under the CPU profiler and records the layer split
// of the CPU time and the garbage collector's work over fn.
func (r *run) profile(fn func() error) error {
	var buf bytes.Buffer
	before := gcCounters()
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	r.phase = r.tr.start("measure", 0, 0)
	err := fn()
	r.tr.end(r.phase)
	pprof.StopCPUProfile()
	after := gcCounters()
	if err != nil {
		return err
	}
	r.cpuProfile = buf.Bytes()
	byLayer, err := cpuByLayer(r.cpuProfile)
	if err != nil {
		return fmt.Errorf("reading CPU profile: %w", err)
	}
	for _, l := range cpuLayers {
		r.set("cpu."+l+"_s", byLayer[l])
	}
	r.set("gc.alloc_mb", (after[0]-before[0])/(1<<20))
	r.set("gc.cycles", after[1]-before[1])
	r.set("gc.cpu_s", after[2]-before[2])
	return nil
}

// gcCounters reads the cumulative allocated bytes, GC cycles and GC
// CPU seconds.
func gcCounters() [3]float64 {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	var out [3]float64
	for i, m := range s {
		switch m.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(m.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = m.Value.Float64()
		}
	}
	return out
}

// layerOf maps a profiled function name to its layer, or "" when the
// function is outside the module.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		if strings.HasPrefix(fn, "repro.") || strings.HasPrefix(fn, "repro/") {
			return "other"
		}
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range cpuLayers {
		if l == rest {
			return l
		}
	}
	return "other"
}

// cpuByLayer charges every sample of a gzipped pprof CPU profile to
// the innermost module frame on its stack, so memory copies, map
// operations and allocation land on the layer that asked for them.
func cpuByLayer(gz []byte) (map[string]float64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range p.samples {
		layer := "runtime"
	frames:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if l := layerOf(p.strings[p.funcName[fn]]); l != "" {
					layer = l
					break frames
				}
			}
		}
		out[layer] += float64(s.values[p.cpuIndex]) / 1e9
	}
	return out, nil
}

// The decoder below reads the subset of the pprof profile.proto
// message that CPU attribution needs.

type pprofSample struct {
	locs   []uint64
	values []int64
}

type pprofProfile struct {
	samples  []pprofSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
	cpuIndex int
}

func parseProfile(gz []byte) (*pprofProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &pprofProfile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}, cpuIndex: -1}
	var sampleTypes [][2]int64
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var vt [2]int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, vt)
			return err
		case 2: // sample
			var s pprofSample
			err := eachField(b, func(n int, v uint64, packed []byte) error {
				switch n {
				case 1:
					return eachVarint(v, packed, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachVarint(v, packed, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, line []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(line, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, st := range sampleTypes {
		if st[0] < int64(len(p.strings)) && p.strings[st[0]] == "cpu" {
			p.cpuIndex = i
		}
	}
	if p.cpuIndex < 0 {
		return nil, errors.New("profile has no cpu sample type")
	}
	for _, s := range p.samples {
		if len(s.values) <= p.cpuIndex {
			return nil, errors.New("sample without a cpu value")
		}
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if p.funcName[fn] >= int64(len(p.strings)) {
					return nil, errors.New("function name outside the string table")
				}
			}
		}
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn for every field
// with its number and either its varint value or, for a
// length-delimited field, its bytes.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errors.New("short fixed-width field")
			}
			b = b[size:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated varint field's values: the one value v
// when the field was written unpacked, else every value in packed.
func eachVarint(v uint64, packed []byte, fn func(uint64)) error {
	if packed == nil {
		fn(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		packed = packed[n:]
		fn(x)
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		c := b[i]
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
