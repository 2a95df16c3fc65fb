package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"
	"time"
)

// profileHz is the CPU sampling rate a traced pass asks for: five times the
// runtime default, so that a layer holding 1% of a 2s pass still gets ten
// samples. The kernel's timer tick can deliver fewer samples than asked
// (250 per second with HZ=250), so times derived from the profile scale
// sample shares by the process CPU time measured with getrusage instead of
// trusting the nominal sampling period.
const profileHz = 500

// cpuProfile captures a runtime/pprof CPU profile in memory.
type cpuProfile struct {
	buf bytes.Buffer
}

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	// Setting the rate first makes StartCPUProfile keep it; the runtime
	// prints a harmless warning about the rate to stderr.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and decodes it.
func (p *cpuProfile) stop() (*profileData, error) {
	pprof.StopCPUProfile()
	return parseProfile(p.buf.Bytes())
}

// profileData is the part of a pprof profile the benchmark reads: every
// sample's stack (leaf first, inlined frames expanded) and sample count.
type profileData struct {
	samples []profSample
}

type profSample struct {
	stack []string // function names, leaf first
	count int64
}

// layerOf maps a function name to the layer (module name) whose self time it
// counts toward. The sim layer includes container/heap, the engine's event
// queue.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.IndexByte(pkg, '['); i >= 0 { // generic instantiation
		pkg = pkg[:i]
	}
	slash := strings.LastIndexByte(pkg, '/')
	if i := strings.IndexByte(pkg[slash+1:], '.'); i >= 0 {
		pkg = pkg[:slash+1+i]
	}
	switch {
	case pkg == "container/heap":
		return "sim"
	case strings.HasPrefix(pkg, "pet/internal/rl/"):
		return strings.TrimPrefix(pkg, "pet/internal/rl/")
	case strings.HasPrefix(pkg, "pet/internal/"):
		return strings.TrimPrefix(pkg, "pet/internal/")
	case pkg == "encoding/json" || pkg == "strconv" || pkg == "reflect":
		return "json"
	case pkg == "net" || pkg == "net/http" || pkg == "internal/poll" || pkg == "bufio" ||
		pkg == "syscall" || pkg == "internal/runtime/syscall":
		return "net"
	case pkg == "runtime":
		return "runtime"
	}
	return "other"
}

// selfByLayer counts the samples whose leaf frame is in each layer.
func (p *profileData) selfByLayer() map[string]int64 {
	counts := map[string]int64{}
	for _, s := range p.samples {
		if len(s.stack) > 0 {
			counts[layerOf(s.stack[0])] += s.count
		}
	}
	return counts
}

// cumUnder counts the samples whose stack passes through any function named
// in roots, each sample once.
func (p *profileData) cumUnder(roots ...string) int64 {
	var count int64
	for _, s := range p.samples {
		for _, fn := range s.stack {
			if slices.Contains(roots, fn) {
				count += s.count
				break
			}
		}
	}
	return count
}

// total counts every sample.
func (p *profileData) total() int64 {
	var count int64
	for _, s := range p.samples {
		count += s.count
	}
	return count
}

// processCPU returns the user plus system CPU time the process has used.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// parseProfile decodes the gzipped profile.proto runtime/pprof writes. Only
// the fields needed to attribute samples to functions are read.
func parseProfile(data []byte) (*profileData, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location → function IDs, leaf first
		funcNames = map[uint64]int64{}    // function → string-table index
		strtab    []string
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendPacked(&s.locs, w, v, b)
				case 2:
					var vals []uint64
					if err := appendPacked(&vals, w, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
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
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := &profileData{}
	for _, s := range samples {
		ps := profSample{}
		if len(s.values) > 0 {
			ps.count = s.values[0]
		}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx >= 0 && int(idx) < len(strtab) {
					ps.stack = append(ps.stack, strtab[idx])
				}
			}
		}
		out.samples = append(out.samples, ps)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's number,
// wire type, varint value (wire type 0) or payload (wire type 2).
func eachField(b []byte, fn func(field, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var (
			v       uint64
			payload []byte
		)
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, packed (wire type 2) or not.
func appendPacked(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
