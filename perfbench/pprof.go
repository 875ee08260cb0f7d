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

// addPackageTime decodes a runtime/pprof CPU profile and adds each Go
// package's self time, in sampled CPU nanoseconds, to byPkg: a sample counts
// toward the package of the innermost function at its leaf location. It
// reads only the few fields of profile.proto it needs, so the benchmark
// needs nothing beyond the standard library.
func addPackageTime(byPkg map[string]int64, profile []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}  // function id → string index
		locLeaf   = map[uint64]uint64{} // location id → innermost function id
		leafValue = map[uint64]int64{}  // leaf location id → summed value
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var locs []uint64
			var vals []int64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					locs = appendVarints(locs, v, b, func(x uint64) uint64 { return x })
				case 2:
					vals = appendVarints(vals, v, b, func(x uint64) int64 { return int64(x) })
				}
				return nil
			})
			if err != nil || len(locs) == 0 || len(vals) == 0 {
				return err
			}
			// CPU profiles carry [samples/count, cpu/nanoseconds].
			leafValue[locs[0]] += vals[len(vals)-1]
		case 4: // Location
			var id, fn uint64
			seenLine := false
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && !seenLine: // the first Line is the innermost
					seenLine = true
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locLeaf[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
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
		return fmt.Errorf("profile: %w", err)
	}
	for loc, v := range leafValue {
		name := "?"
		if i, ok := funcName[locLeaf[loc]]; ok && i > 0 && int(i) < len(strs) {
			name = strs[i]
		}
		byPkg[packageOf(name)] += v
	}
	return nil
}

// shares normalizes per-package times to shares of their sum.
func shares(byPkg map[string]int64) map[string]float64 {
	total := int64(0)
	for _, v := range byPkg {
		total += v
	}
	out := make(map[string]float64, len(byPkg))
	for p, v := range byPkg {
		if total > 0 {
			out[p] = float64(v) / float64(total)
		}
	}
	return out
}

// packageOf is the import path of the package defining the function with
// the given symbol name, e.g. "diva/internal/cluster" for
// "diva/internal/cluster.(*Enumerator).Candidates".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 { // type arguments may hold paths
		fn = fn[:i]
	}
	dir := ""
	if i := strings.LastIndexByte(fn, '/'); i >= 0 {
		dir, fn = fn[:i+1], fn[i+1:]
	}
	if i := strings.IndexByte(fn, '.'); i >= 0 {
		fn = fn[:i]
	}
	return dir + fn
}

// eachField calls f for every field of the protobuf message b with the
// field number and either its varint value or its length-delimited bytes.
func eachField(b []byte, f func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := f(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, given either as one value
// (v, data == nil) or packed into data.
func appendVarints[T any](dst []T, v uint64, data []byte, conv func(uint64) T) []T {
	if data == nil {
		return append(dst, conv(v))
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst
		}
		dst, data = append(dst, conv(x)), data[n:]
	}
	return dst
}
