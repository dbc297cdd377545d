package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuProfile is the part of a pprof profile the benchmark reads: the
// sampling period and every sample's count and call stack.
type cpuProfile struct {
	period  int64 // nanoseconds of CPU time per sample
	samples []sample
}

// sample is one stack with its sample count. stack[0] is the leaf
// frame; inlined frames are expanded, innermost first.
type sample struct {
	count int64
	stack []string
}

// parseProfile decodes a pprof profile (profile.proto, optionally
// gzip-compressed, as runtime/pprof writes it) without any dependency
// outside the standard library.
func parseProfile(data []byte) (*cpuProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: gunzip: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: gunzip: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		raws    []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]int64{}    // function id -> name string index
		strs    []string
		period  int64
		nvalues int // sample_type count
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			nvalues++
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendUints(&s.locs, wire, v, b)
				case 2:
					var u []uint64
					if err := appendUints(&u, wire, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return fmt.Errorf("sample: %w", err)
			}
			raws = append(raws, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return fmt.Errorf("location: %w", err)
			}
			locs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return fmt.Errorf("function: %w", err)
			}
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		case 12: // period
			period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	name := func(fn uint64) string {
		if i, ok := funcs[fn]; ok && i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return "?"
	}
	p := &cpuProfile{period: period}
	for _, r := range raws {
		if len(r.values) == 0 || (nvalues > 0 && len(r.values) != nvalues) {
			return nil, errors.New("profile: sample value count does not match sample_type")
		}
		s := sample{count: r.values[0]}
		for _, l := range r.locs {
			for _, fn := range locs[l] {
				s.stack = append(s.stack, name(fn))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// appendUints appends a repeated integer field in either encoding:
// one varint per field, or packed into a length-delimited field.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling fn with the field
// number, the wire type, the value of a varint or fixed field, and the
// bytes of a length-delimited field.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			for i := 7; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length-delimited field")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v = uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// uvarint decodes a base-128 varint; n <= 0 reports a malformed one.
func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// Host-time modules. A sample is charged to the repository package of
// its leaf frame. Leaf frames outside the repository are charged by
// stack: anything under the garbage collector or the allocator is
// runtime.gc; anything under the goroutine scheduler or a channel
// operation (the engine<->proc park/wake handoff) is runtime.sched;
// any other runtime or standard-library leaf (memmove, map access,
// math) is charged to its nearest repository caller, and to "other"
// when it has none.
const (
	modSched = "runtime.sched"
	modGC    = "runtime.gc"
	modOther = "other"
)

// repoModules are the internal packages reported as their own module.
var repoModules = []string{
	"sim", "nic", "network", "topo", "core", "vmmc", "memory", "app",
	"apps", "faults", "stats", "hwdsm",
}

// gcFrames and schedFrames are runtime function names (without the
// "runtime." prefix) or prefixes ending in '*' that mark a stack as
// garbage-collector/allocator or scheduler/channel work.
var (
	gcFrames = []string{
		"gc*", "mallocgc*", "bgsweep", "bgscavenge", "markroot*", "scanobject",
		"scanstack", "greyobject", "sweepone", "GC", "newobject", "makeslice*",
		"growslice", "newarray", "mProf_Malloc", "wbBufFlush*",
	}
	schedFrames = []string{
		"chansend*", "chanrecv*", "selectgo", "gopark", "goparkunlock", "goready",
		"ready", "schedule", "findRunnable", "park_m", "mcall", "gosched*",
		"goschedImpl", "casgstatus", "runqget", "runqput", "runqgrab", "stealWork",
		"wakep", "startm", "stopm", "mPark", "notesleep", "notewakeup",
		"futexsleep", "futexwakeup", "execute", "gogo", "newproc*", "sysmon",
		"handoffp", "acquirep", "releasep",
	}
)

func matchFrame(fn string, set []string) bool {
	name, ok := strings.CutPrefix(fn, "runtime.")
	if !ok {
		return false
	}
	for _, pat := range set {
		if p, wild := strings.CutSuffix(pat, "*"); wild {
			if strings.HasPrefix(name, p) {
				return true
			}
		} else if name == pat {
			return true
		}
	}
	return false
}

// repoPackage returns the repository import path a function name
// belongs to ("genima/internal/apps/lu"), or "" for other code.
func repoPackage(fn string) string {
	if !strings.HasPrefix(fn, "genima") {
		return ""
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// attribute returns the module a sample is charged to, and for the
// application kernels (module "apps") the app package name.
func attribute(stack []string) (mod, app string) {
	if len(stack) == 0 {
		return modOther, ""
	}
	if pkg := repoPackage(stack[0]); pkg != "" {
		return repoModule(pkg)
	}
	for _, fn := range stack {
		if matchFrame(fn, gcFrames) {
			return modGC, ""
		}
	}
	for _, fn := range stack {
		if matchFrame(fn, schedFrames) {
			return modSched, ""
		}
	}
	for _, fn := range stack[1:] {
		if pkg := repoPackage(fn); pkg != "" {
			return repoModule(pkg)
		}
	}
	return modOther, ""
}

func repoModule(pkg string) (mod, app string) {
	rest, ok := strings.CutPrefix(pkg, "genima/internal/")
	if !ok {
		return modOther, ""
	}
	top, sub, _ := strings.Cut(rest, "/")
	for _, m := range repoModules {
		if m == top {
			if m == "apps" {
				return m, sub
			}
			return m, ""
		}
	}
	return modOther, ""
}

// moduleSeconds sums a profile's CPU seconds per module (and per app
// package under "apps.<app>").
func moduleSeconds(p *cpuProfile) map[string]float64 {
	out := map[string]float64{}
	for _, s := range p.samples {
		sec := float64(s.count*p.period) / 1e9
		mod, app := attribute(s.stack)
		out[mod] += sec
		if app != "" {
			out["apps."+app] += sec
		}
	}
	return out
}
