package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"genima"
	"genima/internal/apps/barrierbench"
	"genima/internal/sim"
)

// pb is a minimal protobuf writer for building fixture profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(x uint64) {
	for x >= 0x80 {
		b.WriteByte(byte(x) | 0x80)
		x >>= 7
	}
	b.WriteByte(byte(x))
}

func (b *pb) uint(field int, x uint64) { b.varint(uint64(field) << 3); b.varint(x) }

func (b *pb) bytesField(field int, data []byte) {
	b.varint(uint64(field)<<3 | 2)
	b.varint(uint64(len(data)))
	b.Write(data)
}

func (b *pb) packed(field int, xs ...uint64) {
	var in pb
	for _, x := range xs {
		in.varint(x)
	}
	b.bytesField(field, in.Bytes())
}

// fixtureProfile encodes a four-sample CPU profile with a 10 ms period:
//
//	3 samples  sim.(*Engine).Run                      -> sim
//	2 samples  runtime.memmove <- memory.Diff         -> memory
//	4 samples  runtime.futex <- runtime.chanrecv1 <- sim.(*Proc).park -> runtime.sched
//	1 sample   lu kernel inlined into app.(*Ctx).F64  -> apps, apps.lu
//
// The first sample repeats its value field unpacked, the others pack
// their location ids, covering both encodings runtime/pprof emits.
func fixtureProfile(gz bool) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"genima/internal/sim.(*Engine).Run",
		"runtime.memmove",
		"genima/internal/memory.Diff",
		"runtime.futex",
		"runtime.chanrecv1",
		"genima/internal/sim.(*Proc).park",
		"genima/internal/apps/lu.(*App).Run.func1",
		"genima/internal/app.(*Ctx).F64",
	}
	var p pb
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} { // sample_type
		var v pb
		v.uint(1, vt[0])
		v.uint(2, vt[1])
		p.bytesField(1, v.Bytes())
	}
	sample := func(count uint64, locs ...uint64) {
		var s pb
		s.packed(1, locs...)
		s.packed(2, count, count*10e6)
		p.bytesField(2, s.Bytes())
	}
	{
		var s pb
		s.uint(1, 1)
		s.uint(2, 3)
		s.uint(2, 30e6)
		p.bytesField(2, s.Bytes())
	}
	sample(2, 2, 3)
	sample(4, 4, 5, 6)
	sample(1, 7)
	location := func(id uint64, fns ...uint64) {
		var l pb
		l.uint(1, id)
		for _, fn := range fns {
			var line pb
			line.uint(1, fn)
			line.uint(2, 42)
			l.bytesField(4, line.Bytes())
		}
		p.bytesField(4, l.Bytes())
	}
	location(1, 1)
	location(2, 2)
	location(3, 3)
	location(4, 4)
	location(5, 5)
	location(6, 6)
	location(7, 7, 8) // inlined: lu kernel inside Ctx.F64
	for i := uint64(1); i <= 8; i++ {
		var f pb
		f.uint(1, i)
		f.uint(2, i+4) // name: strs[5..12]
		p.bytesField(5, f.Bytes())
	}
	for _, s := range strs {
		p.bytesField(6, []byte(s))
	}
	p.uint(12, 10e6) // period
	if !gz {
		return p.Bytes()
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write(p.Bytes())
	zw.Close()
	return z.Bytes()
}

func TestParseProfileFixture(t *testing.T) {
	for _, gz := range []bool{false, true} {
		p, err := parseProfile(fixtureProfile(gz))
		if err != nil {
			t.Fatalf("gzip=%v: %v", gz, err)
		}
		if p.period != 10e6 || len(p.samples) != 4 {
			t.Fatalf("gzip=%v: period %d, %d samples; want 10ms, 4", gz, p.period, len(p.samples))
		}
		if got := p.samples[3].stack; len(got) != 2 || !strings.Contains(got[0], "lu.") {
			t.Fatalf("inlined stack = %v, want lu kernel then Ctx.F64", got)
		}
		got := moduleSeconds(p)
		want := map[string]float64{
			"sim": 0.03, "memory": 0.02, modSched: 0.04, "apps": 0.01, "apps.lu": 0.01,
		}
		if len(got) != len(want) {
			t.Fatalf("modules = %v, want %v", got, want)
		}
		for m, s := range want {
			if d := got[m] - s; d > 1e-12 || d < -1e-12 {
				t.Errorf("%s = %g s, want %g", m, got[m], s)
			}
		}
	}
}

func TestParseProfileRejectsTruncated(t *testing.T) {
	b := fixtureProfile(false)
	if _, err := parseProfile(b[:len(b)-3]); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
}

//go:noinline
func burnCPU(d time.Duration) uint64 {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestParseRuntimeProfile decodes a real profile from runtime/pprof.
func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	burnCPU(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if p.period != 10e6 {
		t.Errorf("period = %d ns, want 10ms", p.period)
	}
	found := int64(0)
	for _, s := range p.samples {
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".burnCPU") {
				found += s.count
				break
			}
		}
	}
	if found == 0 {
		t.Fatalf("no sample has burnCPU on its stack (%d samples)", len(p.samples))
	}
}

func TestAttribute(t *testing.T) {
	cases := []struct {
		stack    []string
		mod, app string
	}{
		{[]string{"genima/internal/nic.(*transit).Run"}, "nic", ""},
		{[]string{"genima/internal/apps/barnes.(*App).force", "genima/internal/app.(*Ctx).F64"}, "apps", "barnes"},
		{[]string{"runtime.mallocgc", "genima/internal/sim.(*Engine).At"}, modGC, ""},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, modGC, ""},
		{[]string{"runtime.futex", "runtime.futexwakeup", "runtime.chansend1", "genima/internal/sim.(*Proc).Sleep"}, modSched, ""},
		{[]string{"runtime.memmove", "genima/internal/memory.ApplyRuns", "runtime.goexit"}, "memory", ""},
		{[]string{"math.Sqrt", "genima/internal/apps/waterns.force"}, "apps", "waterns"},
		{[]string{"genima/internal/rng.Mix64"}, modOther, ""},
		{[]string{"genima.Run"}, modOther, ""},
		{[]string{"runtime/pprof.profileWriter"}, modOther, ""},
		{nil, modOther, ""},
	}
	for _, c := range cases {
		mod, app := attribute(c.stack)
		if mod != c.mod || app != c.app {
			t.Errorf("attribute(%v) = %q, %q; want %q, %q", c.stack, mod, app, c.mod, c.app)
		}
	}
}

// TestWrongReferenceCountsAsFailed validates a correct run against a
// deliberately corrupted sequential reference: the run must be counted
// as failed, not crash, and yield no result.
func TestWrongReferenceCountsAsFailed(t *testing.T) {
	cfg := serialConfig()
	a := barrierbench.New(2)
	p := &pass{}
	_, ref := p.seq(cfg, a)
	if ref == nil || len(p.failures) != 0 {
		t.Fatalf("sequential reference failed: %v", p.failures)
	}
	if res := p.svm(cfg, genima.GeNIMA, a, ref); res == nil || len(p.failures) != 0 {
		t.Fatalf("run against the true reference failed: %v", p.failures)
	}
	r := ref.Region("count")
	ref.SetI64(r, 1, ^ref.I64(r, 1))
	if res := p.svm(cfg, genima.GeNIMA, a, ref); res != nil {
		t.Fatal("run validated against a wrong reference")
	}
	if len(p.failures) != 1 || len(p.runs) != 3 {
		t.Fatalf("failed = %d of %d runs, want 1 of 3 (%v)", len(p.failures), len(p.runs), p.failures)
	}
}

// TestChangedOutputCountsAsFailed checks that a repetition whose
// simulated-time output differs from the reference pass is a failure.
func TestChangedOutputCountsAsFailed(t *testing.T) {
	cfg := serialConfig()
	a := barrierbench.New(2)
	run := func() *pass {
		p := &pass{}
		_, ref := p.seq(cfg, a)
		p.svm(cfg, genima.Base, a, ref)
		return p
	}
	ref, same, changed := run(), run(), run()
	if compareRuns(ref, same); len(same.failures) != 0 {
		t.Fatalf("identical repetition counted as failed: %v", same.failures)
	}
	changed.runs[1].res.Elapsed++
	if compareRuns(ref, changed); len(changed.failures) != 1 {
		t.Fatalf("changed repetition: %d failed runs, want 1", len(changed.failures))
	}
}

func TestSwitchUtilIsPerSwitch(t *testing.T) {
	r := &genima.Result{Elapsed: 1000}
	r.Util.SwitchStage = []sim.Time{4000, 500} // stage 0: 8 switches; stage 1: 1
	if got := switchUtil(r, []int{8, 1}); got != 0.5 {
		t.Fatalf("switchUtil = %g, want 0.5 (stage 0: 4000/8/1000)", got)
	}
}

// TestSpecsMatchManifest checks BENCHMARK.json against the metric and
// workload tables the program reports.
func TestSpecsMatchManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var m struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []spec `json:"end_to_end"`
		PerLayer  []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, w := range m.Workloads {
		if _, err := newWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	check := func(kind string, got []spec, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: manifest has %d metrics, program reports %d", kind, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			g, w := got[i], want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: manifest %s %s %s, program %s %s %s",
					kind, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
}
