package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A small decoder for the gzipped protobuf that runtime/pprof writes,
// reading only what layer attribution needs: each sample's stack of
// function names (innermost first) and its sample count. It keeps the
// benchmark free of module dependencies.

// stackSample is one decoded sample.
type stackSample struct {
	Funcs []string // innermost frame first, inlined frames expanded
	Count int64
}

// decodeProfile parses a gzipped (or raw) pprof profile.
func decodeProfile(data []byte) ([]stackSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs  []uint64
		value int64
	}
	var (
		samples  []rawSample
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]uint64{}   // function id -> string table index
		strs     []string
	)
	err := walkFields(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			first := true
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1: // location_id
					s.locs = appendPacked(s.locs, v, b)
				case 2: // value: the first entry is the sample count
					if vals := appendPacked(nil, v, b); first && len(vals) > 0 {
						s.value, first = int64(vals[0]), false
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return walkFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := walkFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		ss := stackSample{Count: s.value}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i < uint64(len(strs)) {
					ss.Funcs = append(ss.Funcs, strs[i])
				}
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// walkFields calls fn for each field of a protobuf message: v carries a
// varint or fixed value, b a length-delimited payload.
func walkFields(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			if v, n = uvarint(data); n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			data = data[8:]
		case 2:
			l, n := uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			data = data[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated integer field, which arrives either as
// a single varint or as a packed run of varints.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// profLayers are the layers a CPU profile is split into, in report order.
var profLayers = []string{"sim", "pkt", "phy", "mac", "mesh", "routing", "ctl", "traffic",
	"stats", "mobility", "dynamics", "campaign", "fabric", "ezflow", "bench", "runtime"}

// pkgLayer maps a module package to its layer. Other packages of the
// module are charged to the root API layer, "ezflow".
var pkgLayer = map[string]string{
	"ezflow":                   "ezflow",
	"ezflow/internal/sim":      "sim",
	"ezflow/internal/pkt":      "pkt",
	"ezflow/internal/phy":      "phy",
	"ezflow/internal/mac":      "mac",
	"ezflow/internal/mesh":     "mesh",
	"ezflow/internal/routing":  "routing",
	"ezflow/internal/ctl":      "ctl",
	"ezflow/internal/ezflow":   "ctl",
	"ezflow/internal/baseline": "ctl",
	"ezflow/internal/traffic":  "traffic",
	"ezflow/internal/stats":    "stats",
	"ezflow/internal/trace":    "stats",
	"ezflow/internal/mobility": "mobility",
	"ezflow/internal/dynamics": "dynamics",
	"ezflow/internal/campaign": "campaign",
	"ezflow/internal/fabric":   "fabric",
	"main":                     "bench",
	"ezflow/perfbench":         "bench", // this package, as named in test binaries
}

// funcPackage returns the import path of a profiled function name such
// as "ezflow/internal/phy.(*Channel).Busy" or "main.execRun.func1".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// moduleLayer reports the layer of a module frame, or false for a
// runtime or standard-library frame.
func moduleLayer(fn string) (string, bool) {
	pkg := funcPackage(fn)
	if l, ok := pkgLayer[pkg]; ok {
		return l, true
	}
	if strings.HasPrefix(pkg, "ezflow/") {
		return "ezflow", true
	}
	return "", false
}

// isGC reports whether a frame belongs to the garbage collector.
func isGC(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.markroot", "runtime.scanobject",
		"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.greyobject"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// sampleLayer charges one stack to a layer: GC work to "runtime",
// otherwise the innermost module frame's layer, so runtime and standard
// library frames go to their nearest module caller.
func sampleLayer(funcs []string) string {
	for _, fn := range funcs {
		if isGC(fn) {
			return "runtime"
		}
	}
	for _, fn := range funcs {
		if l, ok := moduleLayer(fn); ok {
			return l
		}
	}
	return "runtime"
}

// layerShares returns each layer's share of the profile's samples.
func layerShares(samples []stackSample) map[string]float64 {
	out := make(map[string]float64, len(profLayers))
	for _, l := range profLayers {
		out[l] = 0
	}
	var total int64
	for _, s := range samples {
		out[sampleLayer(s.Funcs)] += float64(s.Count)
		total += s.Count
	}
	if total > 0 {
		for l := range out {
			out[l] /= float64(total)
		}
	}
	return out
}
