package main

// metricSpec names one reported metric with its unit and the direction
// that counts as better. The lists below are the benchmark's contract
// and must match BENCHMARK.json (checked by TestSpecsMatchManifest).
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the metrics every workload reports with tracing off.
var endToEnd = []metricSpec{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"vt_speedup_base_gm", "x", "higher"},
	{"vt_speedup_genima_gm", "x", "higher"},
}

// hostModules are the CPU-profile modules; every one reports self_s,
// and fracModules also report self_frac.
var (
	hostModules = []string{
		"sim", modSched, modGC, "nic", "network", "topo", "core", "vmmc",
		"memory", "app", "apps", "faults", "stats", "hwdsm", modOther,
	}
	fracModules = []string{
		"sim", modSched, modGC, "nic", "network", "core", "vmmc", "memory",
		"app", "apps",
	}
	appPackages = []string{
		"fft", "lu", "ocean", "waterns", "watersp", "radix", "volrend",
		"raytrace", "barnes", "barrierbench", "svmkv",
	}
)

// perLayer are the metrics every workload reports from its traced run.
// A metric a workload does not exercise reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	var out []metricSpec
	add := func(name, unit, better string) { out = append(out, metricSpec{name, unit, better}) }
	for _, m := range hostModules {
		add(m+".self_s", "s", "lower")
	}
	for _, m := range fracModules {
		add(m+".self_frac", "frac", "lower")
	}
	for _, a := range appPackages {
		add("apps."+a+".self_s", "s", "lower")
	}
	add("sched.wait_p50_us", "us", "lower")
	add("sched.wait_p99_us", "us", "lower")
	add("gc.allocs_per_event", "allocs/event", "lower")
	add("gc.bytes_per_event", "B/event", "lower")
	add("gc.cycles", "count", "lower")
	add("span.setup_s", "s", "lower")
	add("span.seq_s", "s", "lower")
	for _, r := range []string{"base", "dw", "dwrf", "dwrfdd", "genima"} {
		add("span.svm."+r+"_s", "s", "lower")
	}
	add("span.hw_s", "s", "lower")
	add("span.validate_s", "s", "lower")
	add("sim.events.base", "count", "lower")
	add("sim.events.genima", "count", "lower")
	add("sim.ns_per_event", "ns", "lower")
	add("trace.overhead_frac", "frac", "lower")
	add("plp.speedup_j2", "x", "higher")

	add("vt_barrier_us_flat", "us", "lower")
	add("vt_barrier_us_tree", "us", "lower")
	add("vt_p50_us", "us", "lower")
	add("vt_p999_us", "us", "lower")
	add("vt_slo_kreqs_base", "kreq/s", "higher")
	add("vt_slo_kreqs_genima", "kreq/s", "higher")
	for _, r := range []string{"base", "genima"} {
		add("core.interrupts."+r, "count", "lower")
		add("core.page_fetches."+r, "count", "lower")
		add("core.diff_bytes."+r, "B", "lower")
		add("core.lock_ops."+r, "count", "lower")
		add("core.mprotect_ops."+r, "count", "lower")
		for _, c := range []string{"compute", "data", "lock", "acqrel", "barrier"} {
			add("vt."+c+"_ms."+r, "ms", "lower")
		}
		add("nic.packets."+r, "count", "lower")
		add("nic.fw_util."+r, "frac", "lower")
		add("nic.pci_util."+r, "frac", "lower")
		add("net.link_util."+r, "frac", "lower")
		add("net.switch_util."+r, "frac", "lower")
	}
	add("core.fetch_retries.genima", "count", "lower")
	add("nic.max_backlog_us.genima", "us", "lower")
	add("nic.post_stalls.genima", "count", "lower")
	add("nic.post_stall_us.genima", "us", "lower")
	for _, c := range []string{"small", "large"} {
		for _, s := range []string{"source", "lanai", "net", "dest"} {
			add("nic."+c+"."+s+"_us.genima", "us", "lower")
		}
	}
	add("rel.drops.genima", "count", "lower")
	add("rel.retx_sent.genima", "count", "lower")
	add("rel.retx_per_drop.genima", "ratio", "lower")
	add("rel.recovery_mean_us.genima", "us", "lower")
	add("rel.recovery_max_us.genima", "us", "lower")
	for _, r := range []string{"base", "genima"} {
		for _, g := range serveGaps {
			add("serve.completed_frac."+r+gapTag(g), "frac", "higher")
			if r != "genima" || g != serveGaps[0] { // that point is vt_p999_us
				add("serve.p999_us."+r+gapTag(g), "us", "lower")
			}
		}
	}
	add("serve.gen_lateness_us", "us", "lower")
	return out
}
