// Command genima-bench regenerates every table and figure of the paper's
// evaluation (Figures 1–4, Tables 1–5) from the simulated system.
//
// Usage:
//
//	genima-bench                  # everything, bench-scale problems
//	genima-bench -exp fig2,table3 # a subset
//	genima-bench -scale test      # tiny problems (seconds)
//	genima-bench -verify          # validate every run against sequential
//	genima-bench -nodes 8         # cluster size for the 16-proc suite
//	genima-bench -j 1             # serial runs (default: GOMAXPROCS)
//	genima-bench -benchjson BENCH_sim.json -scale test
//	                              # time serial vs parallel, emit JSON
//	genima-bench -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

import (
	genima "genima"
	"genima/internal/apps"
)

var (
	expFlag    = flag.String("exp", "all", "comma-separated experiments: fig1,fig2,fig3,fig4,table1,table2,table3,table4,table5 or all; plus scaling, faultsweep, scalesweep, serve and soak (not in all)")
	scaleFlag  = flag.String("scale", "bench", "problem scale: test or bench")
	verifyFlag = flag.Bool("verify", false, "validate every run against the sequential reference")
	nodesFlag  = flag.Int("nodes", 4, "SMP nodes for the main suite (the paper uses 4)")
	procsFlag  = flag.Int("procs", 4, "processors per node (the paper uses 4)")
	quietFlag  = flag.Bool("q", false, "suppress progress output")
	jFlag      = flag.Int("j", 0, "concurrent simulation workers (0 = GOMAXPROCS, 1 = serial)")
	cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	benchJSON  = flag.String("benchjson", "", "time the suite serial vs parallel and write a JSON summary to this file (skips the experiment output)")
	benchGuard = flag.String("benchguard", "", "compare current serial throughput against this committed BENCH_sim.json and exit nonzero on a >25% regression")
	faultsFlag = flag.Float64("faults", 0, "link fault injection for the main suite: packet drop rate (0,1) per FaultMix; 0 disables")
	seedFlag   = flag.Uint64("fault-seed", 1, "deterministic seed for -faults and the faultsweep experiment")

	soakEvents    = flag.Uint64("soak-events", 100_000_000, "soak: stop once cumulative simulated events reach this total (0 = bound by -soak-iters alone)")
	soakIters     = flag.Uint64("soak-iters", 0, "soak: iteration cap (0 = bound by -soak-events alone)")
	soakStopAfter = flag.Uint64("soak-stop-after", 0, "soak: halt after this many iterations this invocation, writing a checkpoint (CI restore hook; 0 = no cap)")
	soakCkpt      = flag.String("soak-checkpoint", "", "soak: rolling iteration-cursor checkpoint file")
	soakStats     = flag.String("soak-stats", "", "soak: append one JSON stats line per iteration to this file")
	soakRestore   = flag.Bool("soak-restore", false, "soak: resume from -soak-checkpoint (fresh campaign if the file does not exist yet)")
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "genima-bench:", err)
	os.Exit(1)
}

// validExperiments lists every -exp name, in help order. "all" selects
// the paper figures/tables; the post-paper experiments (scaling,
// faultsweep, scalesweep, serve, soak) are opt-in by name.
var validExperiments = []string{
	"all", "fig1", "fig2", "fig3", "fig4",
	"table1", "table2", "table3", "table4", "table5",
	"scaling", "faultsweep", "scalesweep", "serve", "soak",
}

// parseExperiments splits a -exp value and rejects unknown names, so a
// typo fails loudly instead of silently running nothing.
func parseExperiments(s string) (map[string]bool, error) {
	valid := map[string]bool{}
	for _, v := range validExperiments {
		valid[v] = true
	}
	want := map[string]bool{}
	for _, e := range strings.Split(s, ",") {
		name := strings.TrimSpace(e)
		if name == "" {
			continue
		}
		if !valid[name] {
			return nil, fmt.Errorf("unknown experiment %q; valid experiments: %s",
				name, strings.Join(validExperiments, ", "))
		}
		want[name] = true
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("no experiments selected; valid experiments: %s",
			strings.Join(validExperiments, ", "))
	}
	return want, nil
}

// benchSummary is the BENCH_sim.json schema: wall-clock evidence for the
// simulator's perf trajectory. suite_*_seconds time one full ladder
// (all protocols + hardware + sequential) over the ten applications.
// Inter-run parallelism (suite_parallel_seconds and friends) fans
// independent runs across workers. Measurements that cannot be taken
// meaningfully on this box (a parallel pass on a single-CPU machine)
// are null, with the reason recorded in note — a null is "not
// measured", never "zero speedup".
type benchSummary struct {
	Generated          string  `json:"generated"`
	GoVersion          string  `json:"go_version"`
	NumCPU             int     `json:"num_cpu"`
	GoMaxProcs         int     `json:"go_max_procs"`
	Scale              string  `json:"scale"`
	Workers            int     `json:"workers"`
	SuiteSerialSeconds float64 `json:"suite_serial_seconds"`
	// Inter-run suite timing: null when skipped (see note).
	SuiteParallelSecs  *float64 `json:"suite_parallel_seconds"`
	ParallelSpeedup    *float64 `json:"parallel_speedup"`
	SimEvents          uint64   `json:"sim_events"`
	EventsPerSecSerial float64  `json:"events_per_sec_serial"`
	EventsPerSecPar    *float64 `json:"events_per_sec_parallel"`
	// Allocation pressure of the serial run (runtime.ReadMemStats deltas
	// divided by simulated events): the pooled packet pipeline's headline
	// metric. Lower is better; the typed event path targets ~0 on the
	// messaging hot paths.
	AllocsPerEvent float64 `json:"allocs_per_event"`
	BytesPerEvent  float64 `json:"bytes_per_event"`
	// Deterministic simulated-time barrier costs: mean virtual ns per
	// barrier episode of the barrierbench microbenchmark. p32 is 8x4
	// processors on the crossbar with the flat fan-out barrier; p128 is
	// 32x4 on a radix-8 clos2 with the NI-firmware collective tree.
	// Unlike the wall-clock fields these are exact model outputs — any
	// drift is a modeling change, not measurement noise — so the guard
	// gates them direction-aware (an increase is the regression).
	BarrierNsP32  *float64 `json:"barrier_ns_p32"`
	BarrierNsP128 *float64 `json:"barrier_ns_p128"`
	// Scaling points: engine throughput on barrierbench at
	// ProcsPerNode=1 over large multi-stage fabrics — 128 nodes on a
	// radix-16 clos2 with the NI collective tree (GeNIMA) and 512 nodes
	// on a radix-16 fat tree with the flat interrupt barrier (Base).
	EventsPerSecP128 *float64 `json:"events_per_sec_p128"`
	EventsPerSecP512 *float64 `json:"events_per_sec_p512"`
	// Serving-workload point: the svmkv open-loop KV server at registry
	// defaults under GeNIMA, clean links. Both are virtual-time model
	// outputs (completed requests per simulated second; p99 request
	// latency in simulated ns) — exact and deterministic like the
	// barrier costs, so the guard gates them direction-aware: throughput
	// dropping or p99 rising >25% is the regression.
	ServeReqsPerSec *float64 `json:"serve_reqs_per_sec"`
	ServeP99Ns      *float64 `json:"serve_p99_ns"`
	// Note lists measurement caveats, comma-separated, e.g.
	// "parallel_skipped_single_cpu" when the box cannot run a
	// meaningful parallel pass.
	Note string `json:"note,omitempty"`
}

// timeBarrierNs runs barrierbench once at the given cluster shape and
// returns the mean simulated ns per barrier episode (2 per round plus
// the harness's trailing barrier). The result is virtual time: fully
// deterministic, identical on every box.
func timeBarrierNs(scale genima.Scale, nodes, procs int, topo genima.Topology, radix int, collectives bool) float64 {
	entry, ok := apps.ByName(scale, "barrierbench")
	if !ok {
		fatal(fmt.Errorf("barrierbench missing"))
	}
	rounds := entry.App.(interface{ Rounds() int }).Rounds()
	cfg := genima.DefaultConfig()
	cfg.Nodes = nodes
	cfg.ProcsPerNode = procs
	cfg.Topo = topo
	cfg.SwitchRadix = radix
	cfg.Collectives = collectives
	res, _, err := genima.Run(cfg, genima.GeNIMA, entry.App)
	if err != nil {
		fatal(err)
	}
	return float64(res.Elapsed) / float64(2*rounds+1)
}

// timeServe runs the svmkv serving workload once at registry defaults
// under GeNIMA with clean links and returns its virtual-time throughput
// (completed requests per simulated second) and p99 request latency
// (simulated ns). Exact model outputs: identical on every box.
func timeServe(scale genima.Scale) (reqsPerSec, p99Ns float64) {
	entry, ok := apps.ByName(scale, "svmkv")
	if !ok {
		fatal(fmt.Errorf("svmkv missing"))
	}
	res, _, err := genima.Run(genima.DefaultConfig(), genima.GeNIMA, entry.App)
	if err != nil {
		fatal(err)
	}
	return res.Latency.Throughput(res.Elapsed), float64(res.Latency.Summary().P99)
}

// scalePoint describes one scaling point (see the benchSummary field
// docs): barrierbench at ProcsPerNode=1 on a large fabric.
type scalePoint struct {
	nodes       int
	topo        genima.Topology
	radix       int
	proto       genima.Protocol
	collectives bool
}

var (
	scaleP128 = scalePoint{128, genima.TopoClos2, 16, genima.GeNIMA, true}
	scaleP512 = scalePoint{512, genima.TopoFatTree, 16, genima.Base, false}
)

// timeScaleEPS times barrierbench at one scaling point and returns the
// best observed events/sec over three passes.
func timeScaleEPS(scale genima.Scale, p scalePoint) float64 {
	entry, ok := apps.ByName(scale, "barrierbench")
	if !ok {
		fatal(fmt.Errorf("barrierbench missing"))
	}
	cfg := genima.DefaultConfig()
	cfg.Nodes = p.nodes
	cfg.ProcsPerNode = 1
	cfg.Topo = p.topo
	cfg.SwitchRadix = p.radix
	cfg.Collectives = p.collectives
	best := 0.0
	for pass := 0; pass < 3; pass++ {
		t0 := time.Now()
		res, _, err := genima.Run(cfg, p.proto, entry.App)
		if err != nil {
			fatal(err)
		}
		if eps := float64(res.Events) / time.Since(t0).Seconds(); eps > best {
			best = eps
		}
	}
	return best
}

// runBenchJSON times the full suite with Workers=1 and Workers=j and
// writes the summary. The two runs produce identical SuiteResults (the
// determinism contract), so the comparison is pure wall-clock.
func runBenchJSON(path string, scale genima.Scale, scaleName string, workers int) {
	cfg := genima.DefaultConfig()
	cfg.Nodes = *nodesFlag
	cfg.ProcsPerNode = *procsFlag
	timeSuite := func(w int) (float64, uint64) {
		t0 := time.Now()
		s, err := genima.RunSuite(cfg, genima.SuiteOptions{
			Scale:    scale,
			Hardware: true,
			Workers:  w,
		})
		if err != nil {
			fatal(err)
		}
		elapsed := time.Since(t0).Seconds()
		var events uint64
		for _, r := range s.Seq {
			events += r.Events
		}
		for _, r := range s.HW {
			events += r.Events
		}
		for _, rs := range s.SVM {
			for _, r := range rs {
				events += r.Events
			}
		}
		return elapsed, events
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	serialSec, events := timeSuite(1)
	runtime.ReadMemStats(&msAfter)
	allocs := msAfter.Mallocs - msBefore.Mallocs
	bytes := msAfter.TotalAlloc - msBefore.TotalAlloc
	// On a single-CPU box either parallel pass measures the same serial
	// work plus scheduler overhead; record null-with-note rather than a
	// meaningless "speedup".
	var notes []string
	var parSecP, speedupP, epsParP *float64
	if runtime.NumCPU() == 1 {
		notes = append(notes, "parallel_skipped_single_cpu")
	} else {
		parSec, _ := timeSuite(workers)
		speedup := serialSec / parSec
		epsPar := float64(events) / parSec
		parSecP, speedupP, epsParP = &parSec, &speedup, &epsPar
	}
	barrier32 := timeBarrierNs(scale, 8, *procsFlag, genima.TopoXbar, 8, false)
	barrier128 := timeBarrierNs(scale, 32, *procsFlag, genima.TopoClos2, 8, true)
	serveTput, serveP99 := timeServe(scale)
	epsP128 := timeScaleEPS(scale, scaleP128)
	epsP512 := timeScaleEPS(scale, scaleP512)
	sum := benchSummary{
		Generated:          time.Now().UTC().Format(time.RFC3339),
		GoVersion:          runtime.Version(),
		NumCPU:             runtime.NumCPU(),
		GoMaxProcs:         runtime.GOMAXPROCS(0),
		Scale:              scaleName,
		Workers:            workers,
		SuiteSerialSeconds: serialSec,
		SuiteParallelSecs:  parSecP,
		ParallelSpeedup:    speedupP,
		SimEvents:          events,
		EventsPerSecSerial: float64(events) / serialSec,
		EventsPerSecPar:    epsParP,
		AllocsPerEvent:     float64(allocs) / float64(events),
		BytesPerEvent:      float64(bytes) / float64(events),
		BarrierNsP32:       &barrier32,
		BarrierNsP128:      &barrier128,
		EventsPerSecP128:   &epsP128,
		EventsPerSecP512:   &epsP512,
		ServeReqsPerSec:    &serveTput,
		ServeP99Ns:         &serveP99,
		Note:               strings.Join(notes, ","),
	}
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	if !*quietFlag {
		if len(notes) > 0 {
			fmt.Fprintf(os.Stderr, "serial %.2fs (%s), %.2f allocs/event, %.0f B/event -> %s\n",
				serialSec, sum.Note, sum.AllocsPerEvent, sum.BytesPerEvent, path)
		} else {
			fmt.Fprintf(os.Stderr, "serial %.2fs, parallel(%d) %.2fs, speedup %.2fx, %.2f allocs/event, %.0f B/event -> %s\n",
				serialSec, workers, *parSecP, *speedupP,
				sum.AllocsPerEvent, sum.BytesPerEvent, path)
		}
	}
}

// runSoak drives an unattended long-run campaign (genima.Soak):
// iterations cycle the app suite and the protocol ladder under per-
// iteration fault seeds, chaining trace hashes, streaming JSONL stats,
// and keeping a rolling O(1) checkpoint cursor. SIGINT/SIGTERM halt at
// the next iteration boundary with a checkpoint and exit 128+sig.
func runSoak(scaleName string) {
	cfg := genima.DefaultConfig()
	cfg.Nodes = *nodesFlag
	cfg.ProcsPerNode = *procsFlag
	opts := genima.SoakOptions{
		Scale:          scaleName,
		TargetEvents:   *soakEvents,
		Iters:          *soakIters,
		StopAfter:      *soakStopAfter,
		CheckpointPath: *soakCkpt,
		StatsPath:      *soakStats,
		FaultRate:      *faultsFlag,
		FaultSeed:      *seedFlag,
	}
	if *soakRestore {
		if *soakCkpt == "" {
			fatal(fmt.Errorf("-soak-restore needs -soak-checkpoint"))
		}
		st, err := genima.LoadCheckpoint(*soakCkpt)
		switch {
		case err == nil:
			opts.Restore = st
		case os.IsNotExist(err):
			// Fresh campaign; the checkpoint appears after iteration 1.
		default:
			fatal(err)
		}
	}
	var sig atomic.Int32
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-ch
		signal.Stop(ch)
		n := syscall.SIGINT
		if ss, ok := s.(syscall.Signal); ok {
			n = ss
		}
		sig.Store(int32(n))
	}()
	opts.ShouldStop = func() bool { return sig.Load() != 0 }
	if !*quietFlag {
		opts.Emit = func(r genima.SoakRecord) {
			fmt.Fprintf(os.Stderr, "soak: iter=%d %s/%s events=%d cum=%d chain=%s wall=%dms heap=%.1fMB\n",
				r.Iter, r.App, r.Proto, r.Events, r.CumEvents, r.Chain,
				r.WallMS, float64(r.HeapBytes)/(1<<20))
		}
	}
	res, err := genima.Soak(cfg, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("soak: iters=%d events=%d chain=%s interrupted=%v\n",
		res.Iters, res.Events, res.Chain, res.Interrupted)
	if n := sig.Load(); res.Interrupted && n != 0 {
		os.Exit(128 + int(n))
	}
}

// runBenchGuard is the CI regression gate: re-time the serial suite at
// the committed baseline's scale and fail if events/sec dropped more
// than 25% below the committed number. Two passes, best taken, so a
// single scheduling hiccup on a shared CI box does not fail the build.
func runBenchGuard(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var committed benchSummary
	if err := json.Unmarshal(data, &committed); err != nil {
		fatal(fmt.Errorf("parse %s: %w", path, err))
	}
	if committed.EventsPerSecSerial <= 0 {
		fatal(fmt.Errorf("%s has no events_per_sec_serial baseline", path))
	}
	scale := genima.BenchScale
	if committed.Scale == "test" {
		scale = genima.TestScale
	}
	cfg := genima.DefaultConfig()
	cfg.Nodes = *nodesFlag
	cfg.ProcsPerNode = *procsFlag
	best := 0.0
	for pass := 0; pass < 2; pass++ {
		t0 := time.Now()
		s, err := genima.RunSuite(cfg, genima.SuiteOptions{Scale: scale, Hardware: true, Workers: 1})
		if err != nil {
			fatal(err)
		}
		elapsed := time.Since(t0).Seconds()
		var events uint64
		for _, r := range s.Seq {
			events += r.Events
		}
		for _, r := range s.HW {
			events += r.Events
		}
		for _, rs := range s.SVM {
			for _, r := range rs {
				events += r.Events
			}
		}
		if eps := float64(events) / elapsed; eps > best {
			best = eps
		}
	}
	ratio := best / committed.EventsPerSecSerial
	if !*quietFlag || ratio < 0.75 {
		fmt.Fprintf(os.Stderr, "bench-guard: %.0f events/sec vs committed %.0f (%.0f%%)\n",
			best, committed.EventsPerSecSerial, 100*ratio)
	}
	if ratio < 0.75 {
		fatal(fmt.Errorf("serial throughput regressed >25%% against %s", path))
	}

	// Barrier-cost gates: simulated time, so any change is a modeling
	// change. Direction-aware (an increase is the regression); null in
	// the committed file skips the gate per the existing discipline.
	for _, g := range []struct {
		name        string
		committed   *float64
		nodes, prcs int
		topo        genima.Topology
		radix       int
		collectives bool
	}{
		{"barrier_ns_p32", committed.BarrierNsP32, 8, *procsFlag, genima.TopoXbar, 8, false},
		{"barrier_ns_p128", committed.BarrierNsP128, 32, *procsFlag, genima.TopoClos2, 8, true},
	} {
		if g.committed == nil || *g.committed <= 0 {
			fmt.Fprintf(os.Stderr, "bench-guard: %s check skipped (no committed baseline)\n", g.name)
			continue
		}
		cur := timeBarrierNs(scale, g.nodes, g.prcs, g.topo, g.radix, g.collectives)
		bratio := cur / *g.committed
		if !*quietFlag || bratio > 1.25 {
			fmt.Fprintf(os.Stderr, "bench-guard: %s %.0f ns vs committed %.0f (%.0f%%)\n",
				g.name, cur, *g.committed, 100*bratio)
		}
		if bratio > 1.25 {
			fatal(fmt.Errorf("%s regressed >25%% against %s", g.name, path))
		}
	}

	// Serving-point gates: virtual-time model outputs like the barrier
	// costs, so direction-aware — serve_reqs_per_sec is gated downward
	// (a throughput drop is the regression), serve_p99_ns upward (a tail
	// increase is the regression). Null in the committed file skips the
	// gate per the existing discipline.
	if (committed.ServeReqsPerSec == nil || *committed.ServeReqsPerSec <= 0) &&
		(committed.ServeP99Ns == nil || *committed.ServeP99Ns <= 0) {
		fmt.Fprintln(os.Stderr, "bench-guard: serve checks skipped (no committed baseline)")
	} else {
		curTput, curP99 := timeServe(scale)
		if committed.ServeReqsPerSec != nil && *committed.ServeReqsPerSec > 0 {
			tratio := curTput / *committed.ServeReqsPerSec
			if !*quietFlag || tratio < 0.75 {
				fmt.Fprintf(os.Stderr, "bench-guard: serve_reqs_per_sec %.0f vs committed %.0f (%.0f%%)\n",
					curTput, *committed.ServeReqsPerSec, 100*tratio)
			}
			if tratio < 0.75 {
				fatal(fmt.Errorf("serve_reqs_per_sec regressed >25%% against %s", path))
			}
		}
		if committed.ServeP99Ns != nil && *committed.ServeP99Ns > 0 {
			pratio := curP99 / *committed.ServeP99Ns
			if !*quietFlag || pratio > 1.25 {
				fmt.Fprintf(os.Stderr, "bench-guard: serve_p99_ns %.0f vs committed %.0f (%.0f%%)\n",
					curP99, *committed.ServeP99Ns, 100*pratio)
			}
			if pratio > 1.25 {
				fatal(fmt.Errorf("serve_p99_ns regressed >25%% against %s", path))
			}
		}
	}

	// Scaling-point gates. Throughput at 128/512 nodes is wall-clock but
	// measurable on any box: skip only when the committed file predates
	// the field (null), fail on a >25% regression.
	for _, g := range []struct {
		name      string
		committed *float64
		point     scalePoint
	}{
		{"events_per_sec_p128", committed.EventsPerSecP128, scaleP128},
		{"events_per_sec_p512", committed.EventsPerSecP512, scaleP512},
	} {
		if g.committed == nil || *g.committed <= 0 {
			fmt.Fprintf(os.Stderr, "bench-guard: %s check skipped (no committed baseline)\n", g.name)
			continue
		}
		best := 0.0
		for pass := 0; pass < 2; pass++ {
			if eps := timeScaleEPS(scale, g.point); eps > best {
				best = eps
			}
		}
		sratio := best / *g.committed
		if !*quietFlag || sratio < 0.75 {
			fmt.Fprintf(os.Stderr, "bench-guard: %s %.0f events/sec vs committed %.0f (%.0f%%)\n",
				g.name, best, *g.committed, 100*sratio)
		}
		if sratio < 0.75 {
			fatal(fmt.Errorf("%s regressed >25%% against %s", g.name, path))
		}
	}
}

func main() {
	flag.Parse()
	if *memProfile != "" {
		// Record every allocation: the suite's remaining alloc count is
		// small enough that sampled profiles are all noise.
		runtime.MemProfileRate = 1
	}
	scale := genima.BenchScale
	scaleName := "bench"
	if *scaleFlag == "test" {
		scale = genima.TestScale
		scaleName = "test"
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memProfile == "" {
			return
		}
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}()

	if *benchJSON != "" {
		runBenchJSON(*benchJSON, scale, scaleName, *jFlag)
		return
	}
	if *benchGuard != "" {
		runBenchGuard(*benchGuard)
		return
	}

	want, err := parseExperiments(*expFlag)
	if err != nil {
		fatal(err)
	}
	if want["soak"] {
		runSoak(scaleName)
		return
	}
	all := want["all"]
	sel := func(name string) bool { return all || want[name] }

	progress := func(msg string) {
		if !*quietFlag {
			fmt.Fprintf(os.Stderr, "run: %s\n", msg)
		}
	}

	needSuite := sel("fig1") || sel("fig2") || sel("fig3") || sel("fig4") ||
		sel("table1") || sel("table2") || sel("table3") || sel("table4")

	t0 := time.Now()
	if needSuite {
		cfg := genima.DefaultConfig()
		cfg.Nodes = *nodesFlag
		cfg.ProcsPerNode = *procsFlag
		if *faultsFlag > 0 {
			cfg.Faults = genima.FaultMix(*faultsFlag, *seedFlag)
		}
		s, err := genima.RunSuite(cfg, genima.SuiteOptions{
			Scale:    scale,
			Hardware: true,
			Verify:   *verifyFlag,
			Progress: progress,
			Workers:  *jFlag,
		})
		if err != nil {
			fatal(err)
		}
		if sel("fig1") {
			fmt.Println(s.Figure1())
		}
		if sel("table1") {
			fmt.Println(s.Table1())
		}
		if sel("fig2") {
			fmt.Println(s.Figure2())
		}
		if sel("fig3") {
			fmt.Println(s.Figure3())
		}
		if sel("fig4") {
			fmt.Println(s.Figure4())
		}
		if sel("table2") {
			fmt.Println(s.Table2())
		}
		if sel("table3") {
			fmt.Println(s.Table3())
		}
		if sel("table4") {
			fmt.Println(s.Table4())
		}
	}
	if sel("table5") {
		d, err := genima.Table5(scale, *verifyFlag, progress)
		if err != nil {
			fatal(err)
		}
		fmt.Println(d)
	}
	if want["scaling"] {
		d, err := genima.Scaling(scale, progress)
		if err != nil {
			fatal(err)
		}
		fmt.Println(d)
	}
	if want["faultsweep"] {
		d, err := genima.FaultSweep(scale, *seedFlag, progress)
		if err != nil {
			fatal(err)
		}
		fmt.Println(d)
	}
	if want["scalesweep"] {
		d, err := genima.ScaleSweep(scale, *seedFlag, progress)
		if err != nil {
			fatal(err)
		}
		fmt.Println(d)
	}
	if want["serve"] {
		d, err := genima.Serve(scale, *seedFlag, progress)
		if err != nil {
			fatal(err)
		}
		fmt.Println(d)
	}
	if !*quietFlag {
		fmt.Fprintf(os.Stderr, "total wall time: %v\n", time.Since(t0))
	}
}
