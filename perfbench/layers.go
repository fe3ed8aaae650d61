package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// modulePrefix is the import-path prefix of the repository's packages.
const modulePrefix = "github.com/firestarter-go/firestarter/internal/"

// layerNames are the repository modules host time is attributed to, plus
// Go's garbage collector and "other" (samples with no module frame:
// scheduler idle, syscalls, the benchmark's own code).
var layerNames = []string{
	"interp", "mem", "htm", "stm", "core", "libsim", "workload", "fleet",
	"supervisor", "obsv", "minic", "transform", "faultinj", "bench",
	"gc", "other",
}

// packageLayer maps repository packages outside the named layers onto the
// layer they serve. Packages absent here and from layerNames (ir, apps,
// libmodel, analysis, replay, sched) are passed over, so their frames are
// charged to the next named module up the stack.
var packageLayer = map[string]string{
	"bytecode": "interp", // the alternative dispatch loop
}

// gcFuncs are runtime entry points of GC mark, sweep and assist work. A
// sample with any of them on its stack is GC work, wherever it was
// triggered from.
var gcFuncs = map[string]bool{
	"runtime.gcBgMarkWorker":        true,
	"runtime.gcAssistAlloc":         true,
	"runtime.gcAssistAlloc1":        true,
	"runtime.gcDrain":               true,
	"runtime.gcDrainN":              true,
	"runtime.gcDrainMarkWorkerIdle": true,
	"runtime.gcMarkDone":            true,
	"runtime.gcMarkTermination":     true,
	"runtime.gcStart":               true,
	"runtime.markroot":              true,
	"runtime.scanobject":            true,
	"runtime.wbBufFlush":            true,
	"runtime.wbBufFlush1":           true,
	"runtime.bgsweep":               true,
	"runtime.sweepone":              true,
	"runtime.(*sweepLocked).sweep":  true,
	"runtime.(*mspan).sweep":        true,
}

// layerOf returns the layer a sample is charged to. stack lists function
// names innermost first. Standard-library and unnamed-package frames are
// skipped, so memmove under libsim code is libsim's.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if gcFuncs[fn] {
			return "gc"
		}
	}
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, modulePrefix)
		if !ok {
			continue
		}
		pkg, _, _ := strings.Cut(rest, ".")
		if l, ok := packageLayer[pkg]; ok {
			return l
		}
		for _, l := range layerNames {
			if l == pkg {
				return l
			}
		}
	}
	return "other"
}

// sample is one CPU-profile sample: its stack (innermost first) and the
// CPU time it stands for.
type sample struct {
	stack []string
	nanos int64
}

// attribute sums the samples' CPU time per layer, in seconds. Every
// sample lands in exactly one layer, so the values sum to the total.
func attribute(samples []sample) map[string]float64 {
	out := make(map[string]float64, len(layerNames))
	for _, l := range layerNames {
		out[l] = 0
	}
	for _, s := range samples {
		out[layerOf(s.stack)] += float64(s.nanos) / 1e9
	}
	return out
}

// parseCPUProfile decodes the gzipped profile.proto that runtime/pprof
// writes, keeping only what attribution needs: each sample's function
// stack (inlined frames expanded) and its cpu/nanoseconds value.
func parseCPUProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
		valueIdx  = -1 // index of the cpu/nanoseconds sample value
		types     [][2]int64
	)
	err = walkFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var t [2]int64
			if err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					t[f-1] = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			types = append(types, t)
		case 2: // sample
			var s rawSample
			if err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, b)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, w, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := walkFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for i, t := range types {
		if t[0] >= 0 && t[0] < int64(len(strs)) && strs[t[0]] == "cpu" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("cpu profile: no cpu sample type")
	}
	name := func(fid uint64) string {
		if i, ok := funcNames[fid]; ok && i >= 0 && i < int64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if valueIdx >= len(s.values) {
			return nil, errors.New("cpu profile: sample lacks its cpu value")
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				stack = append(stack, name(fid))
			}
		}
		out = append(out, sample{stack: stack, nanos: s.values[valueIdx]})
	}
	return out, nil
}

// walkFields calls fn for every top-level field of a protobuf message:
// varints arrive in v, length-delimited fields in b. Fixed-width fields
// are skipped (profile.proto has none that attribution needs).
func walkFields(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errors.New("bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, wire, 0, b); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated uint64 field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
