package genima_test

// svmkv serving-workload regression: the open-loop KV server must
// validate byte-exact against the sequential reference on every
// protocol rung and report a complete latency distribution through
// app.Result. Its packet traces, at test scale and on the multi-stage
// fabrics at 64 and 512 nodes, must stay byte-identical to the serial
// goldens in serial_golden_test.go.

import (
	"testing"

	genima "genima"
)

// TestSvmkvValidatesAcrossLadder runs the serving workload on every
// protocol rung and validates the final store, per-shard order
// checksums, and hot counters byte-for-byte against the sequential
// reference — with and without 1% faults on the top/bottom rungs.
func TestSvmkvValidatesAcrossLadder(t *testing.T) {
	a, _ := appByName(t, "svmkv")
	seqRes, seqWS, err := genima.RunSequential(genima.DefaultConfig(), a)
	if err != nil {
		t.Fatal(err)
	}
	if seqRes.Latency.Count() == 0 {
		t.Fatal("sequential run recorded no latencies")
	}
	for _, proto := range genima.Protocols() {
		for _, faults := range []bool{false, true} {
			if faults && proto != genima.Base && proto != genima.GeNIMA {
				continue
			}
			cfg := genima.DefaultConfig()
			if faults {
				cfg.Faults = genima.FaultMix(0.01, 42)
			}
			res, ws, err := genima.Run(cfg, proto, a)
			if err != nil {
				t.Fatalf("%v faults=%v: %v", proto, faults, err)
			}
			if err := genima.Validate(a, ws, seqWS); err != nil {
				t.Errorf("%v faults=%v: validation failed: %v", proto, faults, err)
			}
			if got := res.Latency.Count(); got != seqRes.Latency.Count() {
				t.Errorf("%v faults=%v: %d latencies recorded, want %d",
					proto, faults, got, seqRes.Latency.Count())
			}
		}
	}
}

// TestSvmkvTraceByteIdentical: the serving workload's packet trace on
// the default cluster, on an interrupt-driven and a synchronous-NI
// rung, faults on and off, is byte-identical to its golden.
func TestSvmkvTraceByteIdentical(t *testing.T) {
	checkGoldens(t, func(app string, f goldenFabric) bool { return app == "svmkv" && f.nodes == 0 })
}

// TestSvmkvScaleTraceByteIdentical composes the serving workload with
// the multi-stage fabrics at 64 and 512 nodes, faults on and off,
// against the goldens. The 512-node points are skipped under -short.
func TestSvmkvScaleTraceByteIdentical(t *testing.T) {
	checkGoldens(t, func(app string, f goldenFabric) bool { return app == "svmkv" && f.nodes > 0 })
}

// TestSvmkvLatencySummary sanity-checks the merged latency report of a
// run: every request accounted for, quantiles monotone, and a
// positive throughput over the run's elapsed virtual time.
func TestSvmkvLatencySummary(t *testing.T) {
	a, _ := appByName(t, "svmkv")
	res, _, err := genima.Run(genima.DefaultConfig(), genima.GeNIMA, a)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Latency.Summary()
	if s.Count == 0 {
		t.Fatal("no latencies recorded")
	}
	if !(s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.P999 && s.P999 <= s.Max) {
		t.Fatalf("quantiles not monotone: %v", s)
	}
	if s.Mean <= 0 || s.Max <= 0 {
		t.Fatalf("degenerate latency summary: %v", s)
	}
	if tput := res.Latency.Throughput(res.Elapsed); tput <= 0 {
		t.Fatalf("throughput = %v", tput)
	}
}
