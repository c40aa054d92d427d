package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// A minimal reader for the pprof profile.proto format: just enough to get
// each sample's stack as function names, leaf first, and its value. It
// keeps the benchmark free of any dependency beyond the standard library.

// stackSample is one profile sample: the call stack as function names,
// innermost frame first, and the sample's last value (CPU nanoseconds in a
// CPU profile).
type stackSample struct {
	Stack []string
	Value int64
}

// protoField is one decoded field of a protobuf message.
type protoField struct {
	num   int
	wire  int
	varnt uint64 // wire type 0
	data  []byte // wire type 2
}

var errProto = errors.New("malformed profile")

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errProto
}

// fields walks the fields of one message, calling f for each.
func fields(b []byte, f func(protoField) error) error {
	for len(b) > 0 {
		key, rest, err := readVarint(b)
		if err != nil {
			return err
		}
		b = rest
		pf := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch pf.wire {
		case 0:
			if pf.varnt, b, err = readVarint(b); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			n, rest, err := readVarint(b)
			if err != nil || uint64(len(rest)) < n {
				return errProto
			}
			pf.data, b = rest[:n], rest[n:]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := f(pf); err != nil {
			return err
		}
	}
	return nil
}

// repeatedVarints reads a repeated integer field, packed or not.
func repeatedVarints(dst []uint64, pf protoField) ([]uint64, error) {
	if pf.wire == 0 {
		return append(dst, pf.varnt), nil
	}
	b := pf.data
	for len(b) > 0 {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// parseProfile decodes a (possibly gzipped) pprof profile.
func parseProfile(raw []byte) ([]stackSample, error) {
	if len(raw) > 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []rawSample
		strs      []string
		funcName  = map[uint64]uint64{}   // function id → name string index
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		addSample = func(b []byte) error {
			var s rawSample
			err := fields(b, func(pf protoField) (err error) {
				switch pf.num {
				case 1:
					s.locs, err = repeatedVarints(s.locs, pf)
				case 2:
					s.values, err = repeatedVarints(s.values, pf)
				}
				return err
			})
			samples = append(samples, s)
			return err
		}
		addLocation = func(b []byte) error {
			var id uint64
			var fns []uint64
			err := fields(b, func(pf protoField) error {
				switch pf.num {
				case 1:
					id = pf.varnt
				case 4: // Line: inlined callees come first
					return fields(pf.data, func(lf protoField) error {
						if lf.num == 1 {
							fns = append(fns, lf.varnt)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		}
		addFunction = func(b []byte) error {
			var id, name uint64
			err := fields(b, func(pf protoField) error {
				switch pf.num {
				case 1:
					id = pf.varnt
				case 2:
					name = pf.varnt
				}
				return nil
			})
			funcName[id] = name
			return err
		}
	)
	err := fields(raw, func(pf protoField) error {
		switch pf.num {
		case 2:
			return addSample(pf.data)
		case 4:
			return addLocation(pf.data)
		case 5:
			return addFunction(pf.data)
		case 6:
			strs = append(strs, string(pf.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ss := stackSample{Value: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx >= uint64(len(strs)) {
					return nil, errProto
				}
				ss.Stack = append(ss.Stack, strs[idx])
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

func readProfile(path string) ([]stackSample, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ss, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ss, nil
}

const internalPrefix = "pperf/internal/"

// layerOf names the internal/ package a function belongs to ("" for
// functions outside pperf/internal).
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, internalPrefix) {
		return ""
	}
	rest := fn[len(internalPrefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// Frame-name prefixes of the runtimeClass classes.
var (
	gcFrames = []string{
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain", "runtime.bgsweep",
		"runtime.(*sweepLocked)", "runtime.gcStart", "runtime.gcMarkTermination", "runtime.gcMarkDone",
		"runtime.bgscavenge",
	}
	allocFrames = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
		"runtime.makemap", "runtime.makechan",
	}
	schedFrames = []string{
		"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.gopark",
		"runtime.goready", "runtime.ready", "runtime.chansend", "runtime.chanrecv", "runtime.send",
		"runtime.recv", "runtime.mcall", "runtime.gogo", "runtime.execute", "runtime.runqget",
		"runtime.runqput", "runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.notesleep",
		"runtime.notewakeup", "runtime.lock", "runtime.unlock", "runtime.osyield", "runtime.procyield",
		"runtime.casgstatus", "runtime.releaseSudog", "runtime.acquireSudog",
	}
	syscallFrames = []string{
		"syscall.", "internal/runtime/syscall.", "runtime/internal/syscall.", "internal/poll.",
		"runtime.netpoll", "runtime.epoll",
	}
)

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// runtimeClass classifies the runtime or library code a sample was
// executing, from its leaf-side frames (those inside the innermost pperf
// frame): garbage collection, gob and fmt anywhere among them, allocation
// when no collector frame is, scheduling and syscalls by the leaf frame
// alone. The classes overlap the share.* cut: a sample collecting garbage on
// behalf of an mpi allocation is both share.mpi and rt.gc.
func runtimeClass(stack []string) string {
	alloc := false
	for _, fn := range stack {
		if layerOf(fn) != "" || strings.HasPrefix(fn, "main.") {
			break
		}
		switch {
		case hasAnyPrefix(fn, gcFrames):
			return "rt.gc"
		case strings.HasPrefix(fn, "encoding/gob."):
			return "rt.gob"
		case strings.HasPrefix(fn, "fmt."), strings.HasPrefix(fn, "strconv."):
			return "rt.fmt"
		case hasAnyPrefix(fn, allocFrames):
			alloc = true
		}
	}
	switch {
	case alloc:
		return "rt.alloc"
	case len(stack) == 0:
		return ""
	case hasAnyPrefix(stack[0], schedFrames):
		return "rt.sched"
	case hasAnyPrefix(stack[0], syscallFrames):
		return "rt.syscall"
	}
	return ""
}

// profileShares buckets CPU samples two ways. share.<pkg> attributes each
// sample to the innermost pperf/internal/<pkg> frame on its stack, or to
// share.other when no frame belongs to a listed layer; the shares sum to 1.
// rt.* is the overlapping cut by runtimeClass.
func profileShares(samples []stackSample) map[string]float64 {
	listed := map[string]bool{}
	for _, l := range shareLayers {
		listed[l] = true
	}
	out := map[string]float64{}
	var total float64
	for _, s := range samples {
		v := float64(s.Value)
		total += v
		layer := "other"
		for _, fn := range s.Stack {
			if l := layerOf(fn); listed[l] {
				layer = l
				break
			}
		}
		out["share."+layer] += v
		if c := runtimeClass(s.Stack); c != "" {
			out[c] += v
		}
	}
	if total == 0 {
		return map[string]float64{}
	}
	for k := range out {
		out[k] /= total
	}
	return out
}
