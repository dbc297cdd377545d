package genima_test

// Process lifetime: compute processors and the per-node protocol
// processes are coroutines owned by the engine, and a run must release
// every one of them when it ends — drained, halted at a checkpoint cut,
// serial or intra-run parallel. A leaked process pins its whole System,
// so soak campaigns and repeated library calls would grow without
// bound.

import (
	"path/filepath"
	"runtime"
	"testing"
	"time"

	genima "genima"
)

// settleGoroutines waits briefly for exiting goroutines and fails if
// the count stays above base.
func settleGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	n := 0
	for i := 0; i < 100; i++ {
		if n = runtime.NumGoroutine(); n <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("%s: %d goroutines, baseline %d (processes leaked)", what, n, base)
}

func TestRepeatedRunsReleaseProcesses(t *testing.T) {
	a, _ := appByName(t, "fft")
	cfg := scaleConfig(16, false)
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		if _, _, err := genima.Run(cfg, genima.Base, a); err != nil {
			t.Fatal(err)
		}
	}
	settleGoroutines(t, base, "after 3 Base runs at 16 nodes")
}

func TestHaltedCheckpointRunReleasesProcesses(t *testing.T) {
	a, _ := appByName(t, "fft")
	for _, workers := range []int{1, 2} {
		cfg := genima.DefaultConfig()
		cfg.IntraRunWorkers = workers
		cfg.Faults = genima.FaultMix(0.01, 42)
		base := runtime.NumGoroutine()
		boundaries := 0
		cr, err := genima.RunCheckpointed(cfg, genima.Base, a, genima.CheckpointOptions{
			Path: filepath.Join(t.TempDir(), "run.ckpt"), Every: 10, App: "fft", Scale: "test",
			ShouldStop: func() bool {
				boundaries++
				return boundaries >= 2
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !cr.Interrupted {
			t.Fatalf("workers=%d: run finished before the halt; shrink Every", workers)
		}
		settleGoroutines(t, base, "after a halted checkpoint run")
	}
}
