package genima_test

// Checkpoint/restore acceptance: a run halted at a cut and restored
// from its checkpoint must finish with a trace hash byte-identical to
// an uninterrupted run, with fault injection on and off, including a
// link down-window spanning the cut.

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	genima "genima"
)

// ckptFull runs uninterrupted (no checkpoint file) and returns the
// final canonical trace hash.
func ckptFull(t *testing.T, cfg genima.Config, proto genima.Protocol, appName string) string {
	t.Helper()
	a, _ := appByName(t, appName)
	cr, err := genima.RunCheckpointed(cfg, proto, a, genima.CheckpointOptions{
		App: appName, Scale: "test", Every: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cr.TraceHash
}

// ckptCutAndResume halts the run at its stopAt-th boundary (writing a
// checkpoint), restores from that checkpoint, and returns the cut
// ordinal and the resumed run's final hash.
func ckptCutAndResume(t *testing.T, cfg genima.Config, proto genima.Protocol, appName string, stopAt int) (uint64, string) {
	t.Helper()
	a, _ := appByName(t, appName)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	boundaries := 0
	cr, err := genima.RunCheckpointed(cfg, proto, a, genima.CheckpointOptions{
		Path: path, Every: 50, App: appName, Scale: "test",
		ShouldStop: func() bool {
			boundaries++
			return boundaries >= stopAt
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !cr.Interrupted {
		t.Fatalf("run finished (%d trace events) before boundary %d; shrink Every", cr.TraceEvents, stopAt)
	}
	st, err := genima.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.TraceEvents != cr.TraceEvents {
		t.Fatalf("checkpoint cut %d != halt point %d", st.TraceEvents, cr.TraceEvents)
	}
	res, err := genima.RunCheckpointed(cfg, proto, a, genima.CheckpointOptions{
		App: appName, Scale: "test", Every: 50, Restore: st,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted {
		t.Fatal("restored run reported Interrupted")
	}
	return st.TraceEvents, res.TraceHash
}

func TestCheckpointRestoreByteIdentical(t *testing.T) {
	for _, faulted := range []bool{false, true} {
		name := "serial"
		if faulted {
			name += "_faults"
		}
		t.Run(name, func(t *testing.T) {
			cfg := genima.DefaultConfig()
			if faulted {
				cfg.Faults = genima.FaultMix(0.02, 7)
			}
			want := ckptFull(t, cfg, genima.GeNIMA, "fft")
			cut, got := ckptCutAndResume(t, cfg, genima.GeNIMA, "fft", 2)
			if cut == 0 {
				t.Fatal("cut at trace event 0")
			}
			if got != want {
				t.Errorf("restored-at-%d hash %s != uninterrupted %s", cut, got, want)
			}
		})
	}
}

// A link down-window open across the checkpoint cut must not disturb
// restore determinism: the retransmission state in flight at the cut is
// reproduced by the replay.
func TestCheckpointRestoreAcrossDownWindow(t *testing.T) {
	cfg := genima.DefaultConfig()
	cfg.Faults = genima.FaultPlan{
		Enabled: true,
		Seed:    11,
		Down: []genima.DownWindow{
			// Node 1 dark for most of the run: every checkpoint boundary
			// a short fft run reaches falls inside this window.
			{Node: 1, Dir: genima.BothDirs, From: 100_000, Until: 3_000_000},
		},
	}
	want := ckptFull(t, cfg, genima.GeNIMA, "fft")
	cut, got := ckptCutAndResume(t, cfg, genima.GeNIMA, "fft", 2)
	if got != want {
		t.Errorf("restored-at-%d hash %s != uninterrupted %s", cut, got, want)
	}
}

// Restoring against the wrong run identity must be rejected up front,
// a checkpoint whose state digest the replay does not reproduce must be
// rejected at the cut, and a file in the retired v1 format must not
// load at all.
func TestCheckpointRestoreRejectsMismatch(t *testing.T) {
	cfg := genima.DefaultConfig()
	a, _ := appByName(t, "fft")
	path := filepath.Join(t.TempDir(), "run.ckpt")
	boundaries := 0
	cr, err := genima.RunCheckpointed(cfg, genima.GeNIMA, a, genima.CheckpointOptions{
		Path: path, Every: 50, App: "fft", Scale: "test",
		ShouldStop: func() bool { boundaries++; return boundaries >= 1 },
	})
	if err != nil || !cr.Interrupted {
		t.Fatalf("setup run: err=%v interrupted=%v", err, cr != nil && cr.Interrupted)
	}
	st, err := genima.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	mismatch := func(err error) bool { return strings.Contains(err.Error(), "mismatch") }
	cases := []struct {
		name string
		ok   func(error) bool
		run  func() error
	}{
		{"app", mismatch, func() error {
			lu, _ := appByName(t, "lu")
			_, err := genima.RunCheckpointed(cfg, genima.GeNIMA, lu, genima.CheckpointOptions{App: "lu", Scale: "test", Restore: st})
			return err
		}},
		{"proto", mismatch, func() error {
			_, err := genima.RunCheckpointed(cfg, genima.Base, a, genima.CheckpointOptions{App: "fft", Scale: "test", Restore: st})
			return err
		}},
		{"config", mismatch, func() error {
			other := cfg
			other.Nodes = 8
			_, err := genima.RunCheckpointed(other, genima.GeNIMA, a, genima.CheckpointOptions{App: "fft", Scale: "test", Restore: st})
			return err
		}},
		{"state digest", func(err error) bool {
			return strings.Contains(err.Error(), "live-state digest mismatch")
		}, func() error {
			tampered := *st
			tampered.StateDigest ^= 1
			_, err := genima.RunCheckpointed(cfg, genima.GeNIMA, a, genima.CheckpointOptions{App: "fft", Scale: "test", Restore: &tampered})
			return err
		}},
		{"v1 format", func(err error) bool { return errors.Is(err, genima.ErrCheckpointVersion) }, func() error {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Reframe as v1: version word 1, trailer refreshed, so only
			// the version check can reject it.
			binary.LittleEndian.PutUint32(raw[4:], 1)
			sum := sha256.Sum256(raw[:len(raw)-sha256.Size])
			copy(raw[len(raw)-sha256.Size:], sum[:])
			v1 := filepath.Join(t.TempDir(), "v1.ckpt")
			if err := os.WriteFile(v1, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = genima.LoadCheckpoint(v1)
			return err
		}},
	}
	for _, c := range cases {
		if err := c.run(); err == nil {
			t.Errorf("%s mismatch accepted", c.name)
		} else if !c.ok(err) {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
	}
}

// OnTrace ordinals: a restore suppresses the replayed prefix, emitting
// exactly the post-cut packets with continuous global ordinals.
func TestCheckpointRestoreSuppressesPrefix(t *testing.T) {
	cfg := genima.DefaultConfig()
	a, _ := appByName(t, "fft")
	path := filepath.Join(t.TempDir(), "run.ckpt")
	boundaries := 0
	cr, err := genima.RunCheckpointed(cfg, genima.GeNIMA, a, genima.CheckpointOptions{
		Path: path, Every: 50, App: "fft", Scale: "test",
		ShouldStop: func() bool { boundaries++; return boundaries >= 2 },
	})
	if err != nil || !cr.Interrupted {
		t.Fatalf("setup run: err=%v interrupted=%v", err, cr != nil && cr.Interrupted)
	}
	st, err := genima.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	res, err := genima.RunCheckpointed(cfg, genima.GeNIMA, a, genima.CheckpointOptions{
		App: "fft", Scale: "test", Restore: st,
		OnTrace: func(idx uint64, _ genima.TraceEvent) { got = append(got, idx) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(got)) != res.TraceEvents-st.TraceEvents {
		t.Fatalf("emitted %d events, want %d post-cut", len(got), res.TraceEvents-st.TraceEvents)
	}
	for i, idx := range got {
		if want := st.TraceEvents + uint64(i); idx != want {
			t.Fatalf("ordinal %d at position %d, want %d", idx, i, want)
		}
	}
}

// Guard against silent boundary drift: the helper cut must land on an
// Every multiple.
func TestCheckpointCutOnBoundary(t *testing.T) {
	cfg := genima.DefaultConfig()
	cut, _ := ckptCutAndResume(t, cfg, genima.GeNIMA, "fft", 2)
	if cut%50 != 0 {
		t.Errorf("cut %d not on an Every=50 boundary", cut)
	}
	if cut != 100 {
		// Two boundaries at Every=50: documents the expected cut so a
		// behavioural change here is loud, not silent.
		t.Errorf("cut %d, want 100", cut)
	}
}
