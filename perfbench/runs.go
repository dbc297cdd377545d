package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"genima"
	"genima/internal/nic"
	"genima/internal/stats"
)

// rungNames maps each protocol rung to its metric-name suffix.
var rungNames = map[genima.Protocol]string{
	genima.Base:   "base",
	genima.DW:     "dw",
	genima.DWRF:   "dwrf",
	genima.DWRFDD: "dwrfdd",
	genima.GeNIMA: "genima",
}

// spans accumulates host time per span name over traced passes. Spans
// are recorded by the benchmark around each call into the library's
// public surface; a nil spans records nothing.
type spans map[string]time.Duration

func (s spans) add(name string, d time.Duration) {
	if s != nil {
		s[name] += d
	}
}

// runRec is one simulation run of a pass: its label ("seq", "hw", or a
// rung name), the app it ran, and its result (nil if it failed).
type runRec struct {
	label, app string
	res        *genima.Result
}

// pass executes one workload pass: it runs simulations through the
// public API, validates each parallel run against its sequential
// reference, and keeps every run's record.
type pass struct {
	sp       spans
	tag      string // appended to the app name of each run record
	runs     []runRec
	failures []string // one line per failed run, for stderr
}

func (p *pass) fail(format string, args ...any) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

func (p *pass) record(label, spanName string, a genima.App, f func() (*genima.Result, *genima.Workspace, error)) (*genima.Result, *genima.Workspace) {
	t0 := time.Now()
	res, ws, err := f()
	p.sp.add(spanName, time.Since(t0))
	if err != nil {
		p.fail("%s %s: %v", a.Name(), label, err)
		res, ws = nil, nil
	}
	p.runs = append(p.runs, runRec{label: label, app: a.Name() + p.tag, res: res})
	return res, ws
}

// seq runs the sequential reference.
func (p *pass) seq(cfg genima.Config, a genima.App) (*genima.Result, *genima.Workspace) {
	return p.record("seq", "span.seq_s", a, func() (*genima.Result, *genima.Workspace, error) {
		return genima.RunSequential(cfg, a)
	})
}

// svm runs one SVM rung and validates it against ref.
func (p *pass) svm(cfg genima.Config, k genima.Protocol, a genima.App, ref *genima.Workspace) *genima.Result {
	name := rungNames[k]
	res, ws := p.record(name, "span.svm."+name+"_s", a, func() (*genima.Result, *genima.Workspace, error) {
		return genima.Run(cfg, k, a)
	})
	return p.validate(name, a, res, ws, ref)
}

// hw runs the hardware-DSM model and validates it against ref.
func (p *pass) hw(cfg genima.Config, a genima.App, ref *genima.Workspace) *genima.Result {
	res, ws := p.record("hw", "span.hw_s", a, func() (*genima.Result, *genima.Workspace, error) {
		return genima.RunHardware(cfg, a)
	})
	return p.validate("hw", a, res, ws, ref)
}

// validate checks a run's output against the sequential reference. A
// failed check counts the run as failed and drops its result, so no
// metric is computed from a wrong run.
func (p *pass) validate(label string, a genima.App, res *genima.Result, ws, ref *genima.Workspace) *genima.Result {
	if res == nil {
		return nil // the run's error is already counted
	}
	if ref == nil {
		p.fail("%s %s: no sequential reference to validate against", a.Name(), label)
		return nil
	}
	t0 := time.Now()
	err := genima.Validate(a, ws, ref)
	p.sp.add("span.validate_s", time.Since(t0))
	if err != nil {
		p.fail("%s %s: validation: %v", a.Name(), label, err)
		return nil
	}
	return res
}

// events sums the engine events of the runs carrying a label.
func (p *pass) events(label string) uint64 {
	var n uint64
	for _, r := range p.runs {
		if r.res != nil && (label == "" || r.label == label) {
			n += r.res.Events
		}
	}
	return n
}

// fingerprint lists every simulated-time value of a result. Two runs
// of the same inputs must produce identical fingerprints: the
// simulation is deterministic, and a simulator speed-up must not
// change its output.
func fingerprint(r *genima.Result) []float64 {
	if r == nil {
		return nil
	}
	f := []float64{float64(r.Procs), float64(r.Elapsed), float64(r.Events), float64(r.BarrierProto)}
	for _, b := range r.Breakdowns {
		for _, t := range b.T {
			f = append(f, float64(t))
		}
	}
	a := r.Acct
	f = append(f, float64(a.BarrierWait), float64(a.BarrierProto), float64(a.Mprotect),
		float64(a.MprotectOps), float64(a.DiffCompute), float64(a.DiffBytes),
		float64(a.PageFetches), float64(a.FetchRetries), float64(a.LockOps), float64(a.Interrupts))
	if m := r.Monitor; m != nil {
		for _, c := range m.ByClass {
			f = append(f, float64(c.Packets), float64(c.Bytes))
			for s := range c.Actual {
				f = append(f, float64(c.Actual[s]), float64(c.Uncontended[s]))
			}
		}
	}
	f = append(f, float64(r.PostQueueStalls), float64(r.PostQueueStallTime), float64(r.PostQueueOverflows))
	fr := r.Faults
	f = append(f, float64(fr.DropsInjected), float64(fr.DupsInjected), float64(fr.DelaysInjected),
		float64(fr.CorruptsInjected), float64(fr.DownDrops), float64(fr.RetxSent),
		float64(fr.DupsSuppressed), float64(fr.OOODropped), float64(fr.CorruptDropped),
		float64(fr.AcksSent), float64(fr.PiggybackAcks), float64(fr.Recovered),
		float64(fr.TotalRecovery), float64(fr.MaxRecovery))
	u := r.Util
	f = append(f, u.Firmware, u.PCI, u.Link, u.Switch, float64(u.MaxBacklog))
	for _, b := range u.SwitchStage {
		f = append(f, float64(b))
	}
	l := r.Latency.Summary()
	f = append(f, float64(l.Count), float64(r.Latency.Sum()), float64(l.P50), float64(l.P90),
		float64(l.P99), float64(l.P999), float64(l.Max))
	return f
}

// compareRuns counts as failed each run of got whose simulated-time
// output differs from the same run in ref (same position, label and
// app). A run that failed in either pass is already counted by the
// pass that lost it, so only pairs of results are compared.
func compareRuns(ref, got *pass) {
	for i, r := range got.runs {
		if i >= len(ref.runs) || ref.runs[i].label != r.label || ref.runs[i].app != r.app {
			got.fail("run %d (%s %s) has no counterpart in the reference pass", i, r.app, r.label)
			continue
		}
		if ref.runs[i].res == nil || r.res == nil {
			continue
		}
		if !equalFloats(fingerprint(ref.runs[i].res), fingerprint(r.res)) {
			got.fail("%s %s: simulated-time output differs from the reference pass", r.app, r.label)
		}
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// rungAgg aggregates the simulated-time layer metrics of one rung over
// its runs (the ten apps of the ladder, or a single run).
type rungAgg struct {
	runs                      int
	acct                      stats.SVMAccounting
	breakdown                 stats.Breakdown // sum over runs of the per-processor mean
	packets                   uint64
	fwUtil, pciUtil, linkUtil float64 // sums over runs; reported as means
	switchUtil                float64
	maxBacklog                float64
	postStalls                uint64
	postStallNs               float64
	stageNs                   [2][nic.NumStages]float64
	stagePackets              [2]uint64
	faults                    stats.FaultReport
}

// add folds one validated run in. perStage is the switch count of each
// fabric stage, so switch utilisation is per switch, not summed over a
// stage's switches.
func (g *rungAgg) add(r *genima.Result, perStage []int) {
	g.runs++
	g.acct.Merge(r.Acct)
	g.breakdown.Merge(r.Avg)
	if m := r.Monitor; m != nil {
		g.packets += m.TotalPackets()
		for c := range g.stageNs {
			g.stagePackets[c] += m.ByClass[c].Packets
			for s := range g.stageNs[c] {
				g.stageNs[c][s] += float64(m.ByClass[c].Actual[s])
			}
		}
	}
	g.fwUtil += r.Util.Firmware
	g.pciUtil += r.Util.PCI
	g.linkUtil += r.Util.Link
	g.switchUtil += switchUtil(r, perStage)
	g.maxBacklog = math.Max(g.maxBacklog, float64(r.Util.MaxBacklog))
	g.postStalls += r.PostQueueStalls
	g.postStallNs += float64(r.PostQueueStallTime)
	g.faults.Merge(r.Faults)
}

// switchUtil is the busiest stage's mean per-switch utilisation: the
// stage's busy time divided by its switch count and the elapsed time.
func switchUtil(r *genima.Result, perStage []int) float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	best := 0.0
	for s, busy := range r.Util.SwitchStage {
		if s < len(perStage) && perStage[s] > 0 {
			best = math.Max(best, float64(busy)/float64(perStage[s])/float64(r.Elapsed))
		}
	}
	return best
}

// switchesPerStage counts a configuration's switches by fabric stage.
func switchesPerStage(cfg genima.Config) []int {
	d := cfg.Fabric()
	n := make([]int, d.NumStages)
	for _, s := range d.SwitchStage {
		n[s]++
	}
	return n
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// simMetrics writes the rung's simulated-time layer metrics with the
// given suffix. Counts and times are sums over the rung's runs;
// utilisations are means over runs; per-packet stage times are means
// over packets.
func (g *rungAgg) simMetrics(m map[string]float64, sfx string) {
	n := float64(g.runs)
	m["core.interrupts."+sfx] = float64(g.acct.Interrupts)
	m["core.page_fetches."+sfx] = float64(g.acct.PageFetches)
	m["core.diff_bytes."+sfx] = float64(g.acct.DiffBytes)
	m["core.lock_ops."+sfx] = float64(g.acct.LockOps)
	m["core.mprotect_ops."+sfx] = float64(g.acct.MprotectOps)
	for c, name := range []string{"compute", "data", "lock", "acqrel", "barrier"} {
		m["vt."+name+"_ms."+sfx] = float64(g.breakdown.T[c]) / 1e6
	}
	m["nic.packets."+sfx] = float64(g.packets)
	m["nic.fw_util."+sfx] = div(g.fwUtil, n)
	m["nic.pci_util."+sfx] = div(g.pciUtil, n)
	m["net.link_util."+sfx] = div(g.linkUtil, n)
	m["net.switch_util."+sfx] = div(g.switchUtil, n)
}

// genimaMetrics writes the layer metrics reported for the GeNIMA rung
// only: NI queueing detail, per-stage packet times (the paper's Tables
// 3 and 4), fetch retries, and reliable-delivery recovery.
func (g *rungAgg) genimaMetrics(m map[string]float64) {
	m["core.fetch_retries.genima"] = float64(g.acct.FetchRetries)
	m["nic.max_backlog_us.genima"] = g.maxBacklog / 1e3
	m["nic.post_stalls.genima"] = float64(g.postStalls)
	m["nic.post_stall_us.genima"] = g.postStallNs / 1e3
	for c, class := range []string{"small", "large"} {
		for s, stage := range []string{"source", "lanai", "net", "dest"} {
			m["nic."+class+"."+stage+"_us.genima"] = div(g.stageNs[c][s], float64(g.stagePackets[c])) / 1e3
		}
	}
	f := g.faults
	drops := f.DropsInjected + f.DownDrops
	m["rel.drops.genima"] = float64(drops)
	m["rel.retx_sent.genima"] = float64(f.RetxSent)
	m["rel.retx_per_drop.genima"] = div(float64(f.RetxSent), float64(drops))
	m["rel.recovery_mean_us.genima"] = div(float64(f.TotalRecovery), float64(f.Recovered)) / 1e3
	m["rel.recovery_max_us.genima"] = float64(f.MaxRecovery) / 1e3
}

// aggregate folds a pass's runs into per-label rung aggregates.
func aggregate(p *pass, perStage []int) map[string]*rungAgg {
	out := map[string]*rungAgg{}
	for _, r := range p.runs {
		if r.res == nil || r.label == "seq" {
			continue
		}
		g := out[r.label]
		if g == nil {
			g = &rungAgg{}
			out[r.label] = g
		}
		g.add(r.res, perStage)
	}
	return out
}

// geomean returns the geometric mean of xs (0 if xs is empty or holds
// a non-positive value).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// median returns the median of xs (0 if empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
