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

// cpuLayers are the packages whose CPU share the traced run reports;
// everything else is folded into "other", so the shares sum to 100.
var cpuLayers = []string{"core", "netif", "ipv6", "ipv4", "tcp", "pcb", "ipsec", "key", "mbuf",
	"inet", "route", "runtime", "crypto", "other"}

// layerOf maps a Go package path to a reported layer.
func layerOf(pkg string) string {
	switch {
	case strings.HasPrefix(pkg, "bsd6/internal/"):
		name := strings.TrimPrefix(pkg, "bsd6/internal/")
		for _, l := range cpuLayers[:11] {
			if name == l {
				return l
			}
		}
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "crypto/") || strings.HasPrefix(pkg, "vendor/golang.org/x/crypto/"):
		return "crypto"
	}
	return "other"
}

// packageOf extracts the package path from a Go symbol name such as
// "bsd6/internal/tcp.(*TCP).Input" or "sync/atomic.(*Pointer[...]).Load".
func packageOf(fn string) string {
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// cpuShares folds a CPU profile (the gzipped protobuf runtime/pprof
// writes) into each layer's percentage of self time: every sample is
// charged to the package of its innermost frame, inlined frames
// included.
func cpuShares(prof []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	byLayer := map[string]int64{}
	var total, samples int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1] // cpu nanoseconds
		layer := "other"
		if fns := p.locFuncs[s.locs[0]]; len(fns) > 0 {
			layer = layerOf(packageOf(p.strs[p.funcName[fns[0]]]))
		}
		byLayer[layer] += v
		total += v
		samples++
	}
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		if total > 0 {
			out[l] = 100 * float64(byLayer[l]) / float64(total)
		} else {
			out[l] = 0
		}
	}
	return out, samples, nil
}

// profile holds the parts of a profile.proto message cpuShares needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strs     []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// Field numbers of profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := walkFields(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case fProfileSample:
			var s sample
			err := walkFields(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case fSampleLocation:
					return appendVarints(w, v, d, func(x uint64) { s.locs = append(s.locs, x) })
				case fSampleValue:
					return appendVarints(w, v, d, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := walkFields(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case fLocationID:
					id = v
				case fLocationLine:
					return walkFields(d, func(f, w int, v uint64, d []byte) error {
						if f == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := walkFields(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case fProfileStrings:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, n := range p.funcName {
		if n < 0 || n >= int64(len(p.strs)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

const (
	wireVarint = 0
	wireI64    = 1
	wireBytes  = 2
	wireI32    = 5
)

var errTruncated = errors.New("truncated protobuf")

// walkFields calls fn for each field of a protobuf message: v carries a
// varint value, data a length-delimited payload.
func walkFields(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(tag>>3), int(tag&7)
		var v uint64
		var data []byte
		switch wire {
		case wireVarint:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case wireI64, wireI32:
			size := 8
			if wire == wireI32 {
				size = 4
			}
			if len(b) < size {
				return errTruncated
			}
			b = b[size:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints handles a repeated integer field, packed or not.
func appendVarints(wire int, v uint64, data []byte, add func(uint64)) error {
	if wire == wireVarint {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		data = data[n:]
	}
	return nil
}
