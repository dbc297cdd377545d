package genima_test

// Golden live-state digests: the StateDigest a checkpoint records at a
// fixed cut is pinned to constants. A checkpoint file written by an
// older build verifies against a newer one only while the digest of
// the same executed prefix stays value-identical, so a change to the
// layout of protocol or NI state (sparse flows, dense arrival counts,
// lazily built vectors) must fold absent state exactly as the zeros the
// dense layout held. Re-record these constants only with a change that
// deliberately breaks checkpoint compatibility, and say so.

import (
	"errors"
	"testing"

	genima "genima"
)

// digestAtCut runs app under proto and returns the StateDigest at trace
// event cut, a multiple of the boundary period 50.
func digestAtCut(t *testing.T, cfg genima.Config, proto genima.Protocol, appName string, cut uint64) uint64 {
	t.Helper()
	a, _ := appByName(t, appName)
	var got uint64
	var at uint64
	ctl := &genima.RunControl{
		BoundaryEvery: 50,
		OnBoundary: func(b *genima.Boundary) bool {
			if b.TraceEvents < cut {
				return true
			}
			got, at = b.StateDigest(), b.TraceEvents
			return false
		},
	}
	_, _, err := genima.RunControlled(cfg, proto, a, ctl)
	if !errors.Is(err, genima.ErrInterrupted) {
		t.Fatalf("run ended before trace event %d (err %v); move the cut", cut, err)
	}
	if at != cut {
		t.Fatalf("cut landed at trace event %d, want %d", at, cut)
	}
	return got
}

func TestStateDigestGolden(t *testing.T) {
	cases := []struct {
		name  string
		cfg   func() genima.Config
		proto genima.Protocol
		app   string
		cut   uint64
		want  uint64
	}{
		{
			// NI collective trees and reliable delivery under faults:
			// per-NI flows, per-source notice counts, tree op vectors.
			name: "fft_genima_collectives_faults",
			cfg: func() genima.Config {
				cfg := genima.DefaultConfig()
				cfg.Collectives = true
				cfg.Faults = genima.FaultMix(0.02, 7)
				return cfg
			},
			proto: genima.GeNIMA,
			app:   "fft",
			cut:   100,
			want:  0x6939a4829aaa64f1,
		},
		{
			// The flat interrupt barrier at 16 nodes: the master's
			// aggregation vectors, and under faults flows that only
			// the master has to every peer.
			name: "barrierbench_base_16n_faults",
			cfg: func() genima.Config {
				cfg := genima.DefaultConfig()
				cfg.Nodes = 16
				cfg.ProcsPerNode = 1
				cfg.Topo = genima.TopoClos2
				cfg.SwitchRadix = 8
				cfg.Faults = genima.FaultMix(0.01, 3)
				return cfg
			},
			proto: genima.Base,
			app:   "barrierbench",
			cut:   300,
			want:  0xc5b10d053d253d22,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := digestAtCut(t, c.cfg(), c.proto, c.app, c.cut); got != c.want {
				t.Errorf("StateDigest at trace event %d = %#016x, want %#016x", c.cut, got, c.want)
			}
		})
	}
}
