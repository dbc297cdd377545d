// Command perfbench is the repository's benchmark driver. It runs one
// named workload through the genima library's public surface on the
// serial engine, checks every run against its sequential reference,
// and prints the workload's metrics as one JSON object on the last
// line of standard output.
//
//	perfbench --workload ladder|fabric512|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 it times whole passes with no instrumentation and
// reports the end-to-end metrics. With --trace 1 it alternates
// untraced passes with traced ones (spans around each public call and
// a CPU profile) and reports the per-layer metrics. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// commit is the repository revision, set at build time by run.sh.
var commit = "unknown"

// Set-up is timed in a burst of at least setupBurstReps builds and
// setupBurst of host time before every pass. It is thus sampled over
// the whole run, like the passes, and a fast set-up is still timed
// over many builds.
const (
	setupBurstReps = 3
	setupBurst     = 20 * time.Millisecond
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: ladder, fabric512 or serve")
		seed    = flag.Uint64("seed", 1, "seed for the workload inputs and the fault plan")
		seconds = flag.Float64("seconds", 20, "host seconds to measure for")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(os.Stdout, *name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// session is one benchmark run of a workload. It counts the
// simulation runs attempted and failed, and compares every pass run by
// run with the first, so a simulated-time value that changes between
// repetitions, or between traced and untraced passes, counts as a
// failed run. It also keeps the host time of every input build.
type session struct {
	w                 workload
	seed              uint64
	ref               *pass
	attempted, failed int
	setups            []float64
}

// build rebuilds the workload's inputs in one timed set-up burst, after
// a garbage collection so the pass that follows starts on a clean heap.
func (s *session) build() error {
	runtime.GC()
	start := time.Now()
	for n := 0; n < setupBurstReps || time.Since(start) < setupBurst; n++ {
		t0 := time.Now()
		if err := s.w.setup(s.seed); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		s.setups = append(s.setups, time.Since(t0).Seconds())
	}
	return nil
}

// add compares a workload pass with the first one and counts it.
func (s *session) add(p *pass) {
	if s.ref == nil {
		s.ref = p
	} else {
		compareRuns(s.ref, p)
	}
	s.count(p)
}

// count adds a pass's runs and failures without comparing it.
func (s *session) count(p *pass) {
	s.attempted += len(p.runs)
	s.failed += len(p.failures)
	if len(p.failures) > 0 {
		fmt.Fprintln(os.Stderr, strings.Join(p.failures, "\n"))
	}
}

func run(out io.Writer, name string, seed uint64, seconds float64, traced bool) error {
	w, err := newWorkload(name)
	if err != nil {
		return err
	}
	if seconds <= 0 || math.IsNaN(seconds) {
		return fmt.Errorf("--seconds must be positive")
	}
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%g trace=%v num_cpu=%d gomaxprocs=%d go=%s commit=%s\n",
		name, seed, seconds, traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)

	budget := time.Duration(seconds * float64(time.Second))
	sess := &session{w: w, seed: seed}
	var vals map[string]float64
	if traced {
		if vals, err = sess.measureTraced(budget); err != nil {
			return err
		}
		vals["span.setup_s"] = median(sess.setups)
		if f, ok := w.(*fabric); ok {
			s, p := f.plpSpeedup()
			sess.count(p)
			vals["plp.speedup_j2"] = s
		}
	} else {
		if vals, err = sess.measure(budget); err != nil {
			return err
		}
		vals["setup_s"] = median(sess.setups)
		vals["peak_rss_mb"] = peakRSSMB()
	}
	e2e, layer := w.metrics(sess.ref)
	for k, v := range e2e {
		vals[k] = v
	}
	for k, v := range layer {
		vals[k] = v
	}
	printSummary(out, name, vals, sess)

	specs := endToEnd
	if traced {
		specs = perLayer
	}
	res := result{
		Correct:   sess.failed == 0,
		Attempted: sess.attempted,
		Failed:    sess.failed,
		Metrics:   map[string]metric{},
	}
	for _, s := range specs {
		res.Metrics[s.name] = metric{Value: vals[s.name], Unit: s.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// measure runs untraced passes until the budget is spent (at least
// one) and returns wall_s, the median pass time.
func (s *session) measure(budget time.Duration) (map[string]float64, error) {
	var walls []float64
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < budget {
		if err := s.build(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		p := s.w.run(nil)
		walls = append(walls, time.Since(t0).Seconds())
		s.add(p)
	}
	fmt.Fprintf(os.Stderr, "pass seconds: %.4g\n", walls)
	return map[string]float64{"wall_s": median(walls)}, nil
}

// hostSnap is the runtime state read around an untraced pass.
type hostSnap struct {
	mem   runtime.MemStats
	sched *metrics.Float64Histogram
}

const schedLatencies = "/sched/latencies:seconds"

func readHost() hostSnap {
	var s hostSnap
	runtime.ReadMemStats(&s.mem)
	sample := []metrics.Sample{{Name: schedLatencies}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindFloat64Histogram {
		s.sched = sample[0].Value.Float64Histogram()
	}
	return s
}

// measureTraced alternates untraced and traced passes until the budget
// is spent (at least one of each). Untraced passes give the engine and
// allocator rates and scheduler latencies; traced passes give spans
// and the CPU profile. Per-pass values are means over traced passes.
func (s *session) measureTraced(budget time.Duration) (map[string]float64, error) {
	var (
		plain, tracedWalls []float64
		events             uint64
		mallocs, allocB    uint64
		gcs                uint32
		waits              []uint64 // scheduler-latency bucket counts over untraced passes
		buckets            []float64
		sp                 = spans{}
		modules            = map[string]float64{}
	)
	start := time.Now()
	for len(tracedWalls) == 0 || time.Since(start) < budget {
		// Untraced pass.
		if err := s.build(); err != nil {
			return nil, err
		}
		before := readHost()
		t0 := time.Now()
		p := s.w.run(nil)
		plain = append(plain, time.Since(t0).Seconds())
		after := readHost()
		s.add(p)
		events += p.events("")
		mallocs += after.mem.Mallocs - before.mem.Mallocs
		allocB += after.mem.TotalAlloc - before.mem.TotalAlloc
		gcs += after.mem.NumGC - before.mem.NumGC
		if before.sched != nil && after.sched != nil {
			buckets = after.sched.Buckets
			if waits == nil {
				waits = make([]uint64, len(after.sched.Counts))
			}
			for i := range waits {
				waits[i] += after.sched.Counts[i] - before.sched.Counts[i]
			}
		}

		// Traced pass.
		if err := s.build(); err != nil {
			return nil, err
		}
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		t0 = time.Now()
		p = s.w.run(sp)
		tracedWalls = append(tracedWalls, time.Since(t0).Seconds())
		pprof.StopCPUProfile()
		s.add(p)
		cp, err := parseProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		for m, sec := range moduleSeconds(cp) {
			modules[m] += sec
		}
	}
	n := float64(len(tracedWalls))
	vals := map[string]float64{}
	total := 0.0
	for _, sec := range modules {
		total += sec
	}
	for m, sec := range modules {
		vals[m+".self_s"] = sec / n
		vals[m+".self_frac"] = div(sec, total)
	}
	for name, d := range sp {
		vals[name] = d.Seconds() / n
	}
	np := float64(len(plain))
	vals["sim.ns_per_event"] = div(sumF(plain)*1e9, float64(events))
	vals["gc.allocs_per_event"] = div(float64(mallocs), float64(events))
	vals["gc.bytes_per_event"] = div(float64(allocB), float64(events))
	vals["gc.cycles"] = float64(gcs) / np
	vals["sched.wait_p50_us"] = histQuantile(waits, buckets, 0.5) * 1e6
	vals["sched.wait_p99_us"] = histQuantile(waits, buckets, 0.99) * 1e6
	vals["trace.overhead_frac"] = div(median(tracedWalls), median(plain)) - 1
	vals["sim.events.base"] = float64(s.ref.events("base"))
	vals["sim.events.genima"] = float64(s.ref.events("genima"))
	return vals, nil
}

func sumF(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// histQuantile returns the upper bound of the bucket holding the
// q-quantile of a runtime/metrics histogram (its lower bound for the
// open-ended last bucket; 0 when empty).
func histQuantile(counts []uint64, buckets []float64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			if math.IsInf(buckets[i+1], 1) {
				return buckets[i]
			}
			return buckets[i+1]
		}
	}
	return buckets[len(buckets)-1]
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// issueMetrics are the end-to-end metrics of the benchmark's design,
// printed by name on every run. Those that only one workload exercises
// are reported to the driver as per-layer metrics, because every
// end-to-end metric must be defined on every workload.
var issueMetrics = []struct{ name, unit, only string }{
	{"wall_s", "s", ""},
	{"setup_s", "s", ""},
	{"peak_rss_mb", "MB", ""},
	{"runs_failed", "frac", ""},
	{"vt_speedup_base_gm", "x", ""},
	{"vt_speedup_genima_gm", "x", ""},
	{"vt_barrier_us_flat", "us", "fabric512"},
	{"vt_barrier_us_tree", "us", "fabric512"},
	{"vt_p50_us", "us", "serve"},
	{"vt_p999_us", "us", "serve"},
	{"vt_slo_kreqs_base", "kreq/s", "serve"},
	{"vt_slo_kreqs_genima", "kreq/s", "serve"},
}

// printSummary prints one line per metric of the design, then every
// other reported value, sorted by name.
func printSummary(out io.Writer, workload string, vals map[string]float64, s *session) {
	vals["runs_failed"] = div(float64(s.failed), float64(s.attempted))
	seen := map[string]bool{}
	for _, m := range issueMetrics {
		seen[m.name] = true
		v, ok := vals[m.name]
		switch {
		case m.only != "" && m.only != workload:
			fmt.Fprintf(out, "  %-28s n/a (%s only)\n", m.name, m.only)
		case !ok:
			fmt.Fprintf(out, "  %-28s n/a (measured with --trace 0)\n", m.name)
		default:
			fmt.Fprintf(out, "  %-28s %.6g %s\n", m.name, v, m.unit)
		}
	}
	var rest []string
	for k := range vals {
		if !seen[k] {
			rest = append(rest, k)
		}
	}
	sort.Strings(rest)
	for _, k := range rest {
		fmt.Fprintf(out, "  %-28s %.6g\n", k, vals[k])
	}
	fmt.Fprintf(out, "  runs: %d attempted, %d failed\n", s.attempted, s.failed)
}
