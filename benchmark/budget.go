package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// The wall-time budget: the CPU profile of the traced pass, folded into one
// share per layer. A sample goes to the first rule it matches:
//
//  1. leaf is memmove/memclr                         -> memmove
//  2. any frame is the allocator or the collector    -> alloc_gc
//  3. leaf is runtime and any frame is the scheduler -> sched
//  4. the nearest frame whose package is a layer     -> that layer
//  5. everything else (the harness itself, net/http) -> other
//
// Rule 4 charges runtime helpers (map access, interface conversion) to the
// layer that called them. The shares sum to 100 by construction.

var budgetNames = []string{"sched", "alloc_gc", "memmove", "sim", "mpi", "fabric", "gpu_buf",
	"ccl_shmem", "core_solver", "trace_json", "other"}

var schedFrames = frameSet("schedule", "park_m", "findRunnable", "gopark", "goready", "ready",
	"selectgo", "chansend", "chanrecv", "chansend1", "chanrecv1", "futex", "futexsleep",
	"futexwakeup", "lock2", "unlock2", "casgstatus", "mcall", "goexit0", "newproc", "wakep",
	"startm", "stopm", "notesleep", "notewakeup", "goschedImpl", "gosched_m", "mstart",
	"semasleep", "semawakeup", "usleep", "osyield", "procyield", "runqgrab", "stealWork",
	"resetspinning", "execute", "gogo", "semacquire1", "semrelease1")

var allocFrames = frameSet("mallocgc", "newobject", "makeslice", "growslice", "gcBgMarkWorker",
	"gcAssistAlloc", "gcDrain", "bgsweep", "bgscavenge", "sweepone", "gcStart", "gcMarkDone",
	"gcMarkTermination", "scanobject", "markroot", "wbBufFlush", "gcWriteBarrier")

func frameSet(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m["runtime."+n] = true
	}
	return m
}

// layerOfPkg maps an import path to its budget share ("" when the package is
// not a layer).
func layerOfPkg(pkg string) string {
	switch pkg {
	case "repro/internal/sim":
		return "sim"
	case "repro/internal/mpi":
		return "mpi"
	case "repro/internal/fabric", "repro/internal/machine":
		return "fabric"
	case "repro/internal/gpu", "repro/internal/buf":
		return "gpu_buf"
	case "repro/internal/gpuccl", "repro/internal/gpushmem":
		return "ccl_shmem"
	case "repro/internal/core", "repro/internal/sparse":
		return "core_solver"
	case "repro/internal/trace", "repro/internal/metrics", "repro/internal/spec",
		"repro/internal/cache", "repro/internal/serve", "encoding/json":
		return "trace_json"
	case "main", "repro/benchmark":
		return "other"
	}
	if strings.HasPrefix(pkg, "repro/internal/solver/") {
		return "core_solver"
	}
	return ""
}

// pkgOf returns the import path of a symbol as pprof names it:
// "repro/internal/sim.(*Engine).dispatch" -> "repro/internal/sim".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/")
}

// classify folds one stack (leaf first) into a budget share.
func classify(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	leaf := stack[0]
	if strings.HasPrefix(leaf, "runtime.memmove") || strings.HasPrefix(leaf, "runtime.memclr") {
		return "memmove"
	}
	for _, f := range stack {
		if allocFrames[f] {
			return "alloc_gc"
		}
	}
	if isRuntime(leaf) {
		for _, f := range stack {
			if schedFrames[f] {
				return "sched"
			}
		}
	}
	for _, f := range stack {
		if l := layerOfPkg(pkgOf(f)); l != "" {
			return l
		}
	}
	return "other"
}

// budgetShares decodes a gzipped pprof CPU profile and returns the percent
// of samples per budget share, plus the sample count. An empty profile (a
// run too short to be sampled) is all "other", so the shares still sum to
// 100.
func budgetShares(profile []byte) (map[string]float64, int64, error) {
	shares := make(map[string]float64, len(budgetNames))
	stacks, err := decodeProfile(profile)
	if err != nil {
		return nil, 0, err
	}
	var total int64
	for _, s := range stacks {
		shares[classify(s.frames)] += float64(s.count)
		total += s.count
	}
	if total == 0 {
		shares["other"] = 100
		return shares, 0, nil
	}
	for k := range shares {
		shares[k] = shares[k] / float64(total) * 100
	}
	return shares, total, nil
}

type profStack struct {
	frames []string // leaf first
	count  int64
}

// decodeProfile is the part of the pprof protobuf a flat fold needs: samples
// (location ids and the first value, the sample count), locations (their
// lines' function ids, innermost first), functions (name index) and the
// string table. Writing these sixty lines avoids a module dependency and a
// shell-out to `go tool pprof`.
func decodeProfile(gz []byte) ([]profStack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id -> string index
		strs    []string
	)
	err = eachField(raw, func(num int, varint uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			first := true
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					if vals := appendVarints(nil, v, b); first && len(vals) > 0 {
						s.count, first = int64(vals[0]), false
					}
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // Function
			var id, name uint64
			if err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			fnName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]profStack, 0, len(samples))
	for _, s := range samples {
		ps := profStack{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					ps.frames = append(ps.frames, strs[i])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with the field number and
// either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, varint uint64, bytes []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", num)
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64 in field %d", num)
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length in field %d", num)
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32 in field %d", num)
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, num)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, which arrives either as one
// value (packed == nil) or as a packed run.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}
