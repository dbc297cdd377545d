package main

import (
	"fmt"
	"strconv"
	"time"

	"genima"
	"genima/internal/apps"
	"genima/internal/apps/barrierbench"
	"genima/internal/apps/svmkv"
)

// workload is one benchmark workload. setup builds its inputs from the
// seed; run executes one pass over them; metrics derives the pass's
// simulated-time results: the end-to-end vt_* values shared by every
// workload, and the workload's simulated-time layer metrics.
type workload interface {
	setup(seed uint64) error
	run(sp spans) *pass
	metrics(p *pass) (e2e, layer map[string]float64)
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "ladder":
		return &ladder{}, nil
	case "fabric512":
		return &fabric{}, nil
	case "serve":
		return &serve{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want ladder, fabric512 or serve)", name)
}

// serialConfig returns the default cluster on the serial engine.
func serialConfig() genima.Config {
	cfg := genima.DefaultConfig()
	cfg.IntraRunWorkers = 1
	return cfg
}

// speedups returns, per app run in p, seq.Elapsed / rung.Elapsed for
// the runs labelled rung, skipping apps whose runs failed.
func speedups(p *pass, rung string) []float64 {
	seq := map[string]*genima.Result{}
	var out []float64
	for _, r := range p.runs {
		switch {
		case r.res == nil:
		case r.label == "seq":
			seq[r.app] = r.res
		case r.label == rung && seq[r.app] != nil:
			out = append(out, genima.Speedup(seq[r.app], r.res))
		}
	}
	return out
}

func vtSpeedups(p *pass) map[string]float64 {
	return map[string]float64{
		"vt_speedup_base_gm":   geomean(speedups(p, "base")),
		"vt_speedup_genima_gm": geomean(speedups(p, "genima")),
	}
}

// rungLayers writes the simulated-time layer metrics of the base and
// genima rungs of the runs kept by keep.
func rungLayers(p *pass, perStage []int, keep func(runRec) bool, m map[string]float64) {
	q := &pass{}
	for _, r := range p.runs {
		if keep(r) {
			q.runs = append(q.runs, r)
		}
	}
	aggs := aggregate(q, perStage)
	for _, rung := range []string{"base", "genima"} {
		g := aggs[rung]
		if g == nil {
			g = &rungAgg{}
		}
		g.simMetrics(m, rung)
		if rung == "genima" {
			g.genimaMetrics(m)
		}
	}
}

// --- ladder: the paper's Figures 1-2 at bench scale ---

type ladder struct {
	cfg      genima.Config
	apps     []genima.App
	perStage []int
}

// setup builds the ten bench-scale apps and the default 4x4 cluster.
// The app inputs are the registry's fixed inputs, so the seed has no
// effect on this workload.
func (w *ladder) setup(uint64) error {
	w.cfg = serialConfig()
	if err := w.cfg.Validate(); err != nil {
		return err
	}
	w.perStage = switchesPerStage(w.cfg)
	w.apps = w.apps[:0]
	for _, e := range apps.Suite(apps.Bench) {
		w.apps = append(w.apps, e.App)
	}
	return nil
}

func (w *ladder) run(sp spans) *pass {
	p := &pass{sp: sp}
	for _, a := range w.apps {
		_, ref := p.seq(w.cfg, a)
		for _, k := range genima.Protocols() {
			p.svm(w.cfg, k, a, ref)
		}
		p.hw(w.cfg, a, ref)
	}
	return p
}

func (w *ladder) metrics(p *pass) (map[string]float64, map[string]float64) {
	layer := map[string]float64{}
	rungLayers(p, w.perStage, func(runRec) bool { return true }, layer)
	return vtSpeedups(p), layer
}

// --- fabric512: barrier episodes on a 512-node radix-16 fat tree ---

// fabricRounds is the barrierbench round count: enough barrier
// episodes that one pass takes seconds of host time.
const fabricRounds = 48

type fabric struct {
	flat, tree genima.Config
	app        *barrierbench.App
	perStage   []int
}

// setup builds the two legs: Base with the flat interrupt barrier on
// clean links, and GeNIMA with the NI collective tree under a 1% mixed
// fault plan drawn from the seed.
func (w *fabric) setup(seed uint64) error {
	cfg := serialConfig()
	cfg.Nodes = 512
	cfg.ProcsPerNode = 1
	cfg.Topo = genima.TopoFatTree
	cfg.SwitchRadix = 16
	w.flat = cfg
	w.tree = cfg
	w.tree.Collectives = true
	w.tree.Faults = genima.FaultMix(0.01, seed)
	for _, c := range []genima.Config{w.flat, w.tree} {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	w.perStage = switchesPerStage(w.flat)
	w.app = barrierbench.New(fabricRounds)
	return nil
}

func (w *fabric) run(sp spans) *pass {
	p := &pass{sp: sp}
	_, ref := p.seq(w.flat, w.app)
	p.svm(w.flat, genima.Base, w.app, ref)
	p.svm(w.tree, genima.GeNIMA, w.app, ref)
	return p
}

func (w *fabric) metrics(p *pass) (map[string]float64, map[string]float64) {
	layer := map[string]float64{}
	rungLayers(p, w.perStage, func(runRec) bool { return true }, layer)
	// Two barriers per round plus the harness's trailing flush barrier.
	episodes := float64(2*w.app.Rounds() + 1)
	for _, r := range p.runs {
		if r.res == nil {
			continue
		}
		us := float64(r.res.Elapsed) / episodes / 1e3
		switch r.label {
		case "base":
			layer["vt_barrier_us_flat"] = us
		case "genima":
			layer["vt_barrier_us_tree"] = us
		}
	}
	return vtSpeedups(p), layer
}

// plpSpeedup times both legs on the serial engine and then at
// IntraRunWorkers=2, and returns serial time over parallel time. The
// parallel runs must reproduce the serial results exactly; a mismatch
// is counted as a failed run of the returned pass.
func (w *fabric) plpSpeedup() (float64, *pass) {
	p := &pass{}
	legs := func(workers int) time.Duration {
		flat, tree := w.flat, w.tree
		flat.IntraRunWorkers, tree.IntraRunWorkers = workers, workers
		t0 := time.Now()
		p.record("base", "", w.app, func() (*genima.Result, *genima.Workspace, error) {
			return genima.Run(flat, genima.Base, w.app)
		})
		p.record("genima", "", w.app, func() (*genima.Result, *genima.Workspace, error) {
			return genima.Run(tree, genima.GeNIMA, w.app)
		})
		return time.Since(t0)
	}
	serial := legs(1)
	parallel := legs(2)
	for i := 0; i < 2; i++ {
		s, q := p.runs[i].res, p.runs[i+2].res
		if s != nil && q != nil && !equalFloats(fingerprint(s), fingerprint(q)) {
			p.fail("%s leg: IntraRunWorkers=2 output differs from the serial engine", p.runs[i].label)
		}
	}
	return div(serial.Seconds(), parallel.Seconds()), p
}

// --- serve: open-loop svmkv at a fixed ladder of offered rates ---

// serveGaps are the offered-rate ladder's multipliers on the default
// 6 us mean interarrival gap, lightest load first.
var serveGaps = []float64{2.5, 2.0, 1.6, 1.3, 1.0}

// The serving SLO: p999 at most 5 ms with at least 95% of the offered
// rate completed (no growing backlog).
const (
	sloP999Ns     = 5e6
	sloCompletion = 0.95
)

type serve struct {
	cfg      genima.Config
	apps     []*svmkv.App
	perStage []int
}

func gapTag(g float64) string { return ".gap" + strconv.FormatFloat(g, 'f', -1, 64) }

// setup precomputes the seeded request schedule at each offered rate.
func (w *serve) setup(seed uint64) error {
	w.cfg = serialConfig()
	if err := w.cfg.Validate(); err != nil {
		return err
	}
	w.perStage = switchesPerStage(w.cfg)
	w.apps = w.apps[:0]
	for _, g := range serveGaps {
		p := svmkv.DefaultParams(true)
		p.Seed = seed
		p.MeanGapNs *= g
		w.apps = append(w.apps, svmkv.New(p))
	}
	return nil
}

func (w *serve) run(sp spans) *pass {
	p := &pass{sp: sp}
	for i, a := range w.apps {
		p.tag = gapTag(serveGaps[i])
		_, ref := p.seq(w.cfg, a)
		p.svm(w.cfg, genima.Base, a, ref)
		p.svm(w.cfg, genima.GeNIMA, a, ref)
	}
	return p
}

// offeredKreqs is the nominal offered rate of a schedule in kreq/s.
func offeredKreqs(a *svmkv.App) float64 { return 1e6 / a.Params().MeanGapNs }

func (w *serve) metrics(p *pass) (map[string]float64, map[string]float64) {
	layer := map[string]float64{}
	light := "svmkv" + gapTag(serveGaps[0])
	rungLayers(p, w.perStage, func(r runRec) bool { return r.app == light }, layer)
	slo := map[string]float64{}
	for i, a := range w.apps {
		app := "svmkv" + gapTag(serveGaps[i])
		for _, r := range p.runs {
			if r.res == nil || r.app != app || r.label == "seq" {
				continue
			}
			offered := offeredKreqs(a)
			done := r.res.Latency.Throughput(r.res.Elapsed) / 1e3 / offered
			p999 := r.res.Latency.Quantile(0.999)
			sfx := "." + r.label + gapTag(serveGaps[i])
			layer["serve.completed_frac"+sfx] = done
			layer["serve.p999_us"+sfx] = float64(p999) / 1e3
			if float64(p999) <= sloP999Ns && done >= sloCompletion && offered > slo[r.label] {
				slo[r.label] = offered
			}
			if i == 0 && r.label == "genima" {
				layer["vt_p50_us"] = float64(r.res.Latency.Quantile(0.5)) / 1e3
				layer["vt_p999_us"] = float64(p999) / 1e3
			}
		}
	}
	layer["vt_slo_kreqs_base"] = slo["base"]
	layer["vt_slo_kreqs_genima"] = slo["genima"]
	// The arrival schedule is precomputed and each request is timed
	// from its due time in virtual time, so the generator is never
	// late; reported as a number per the open-loop method.
	layer["serve.gen_lateness_us"] = 0
	return vtSpeedups(p), layer
}
