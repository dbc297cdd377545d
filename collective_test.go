package genima_test

// Multi-stage fabric + NI-firmware collective tree regression: the
// ladder must validate on switched fabrics with collectives enabled,
// and the tree barrier must beat the flat fan-out barrier at scale
// (the PR's headline claim; see DESIGN.md §10).

import (
	"testing"

	genima "genima"
	"genima/internal/apps"
)

// clos2Config is the default 4-node cluster rebuilt on a radix-4
// two-level Clos: two hosts per leaf, so cross-leaf traffic takes
// three switch hops even at test scale.
func clos2Config(collectives bool) genima.Config {
	cfg := genima.DefaultConfig()
	cfg.Topo = genima.TopoClos2
	cfg.SwitchRadix = 4
	cfg.Collectives = collectives
	return cfg
}

// scaleConfig is an n-node, one-processor-per-node cluster on a
// radix-32 Clos (capacity 512), the scalesweep fabric.
func scaleConfig(n int, collectives bool) genima.Config {
	cfg := genima.DefaultConfig()
	cfg.Nodes = n
	cfg.ProcsPerNode = 1
	cfg.Topo = genima.TopoClos2
	cfg.SwitchRadix = 32
	cfg.Collectives = collectives
	return cfg
}

// TestCollectivesValidateLadder runs two apps over the whole ladder on
// the multi-stage fabric with collectives on and checks results
// against the sequential reference. Base has no deposit support, so
// the collective gate leaves it on the interrupt path — it must still
// validate with the config set.
func TestCollectivesValidateLadder(t *testing.T) {
	for _, name := range []string{"fft", "water-nsq"} {
		a, _ := appByName(t, name)
		cfg := clos2Config(true)
		seq, seqWS, err := genima.RunSequential(cfg, a)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range genima.Protocols() {
			res, ws, err := genima.Run(cfg, k, a)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, k, err)
			}
			if err := genima.Validate(a, ws, seqWS); err != nil {
				t.Errorf("%s/%v on clos2+collectives: %v", name, k, err)
			}
			if res.Elapsed <= 0 || res.Elapsed >= seq.Elapsed*10 {
				t.Errorf("%s/%v: implausible elapsed %d (seq %d)", name, k, res.Elapsed, seq.Elapsed)
			}
		}
	}
}

// TestCollectivesKeepGeNIMAInterruptFree checks the tree protocol
// honors the capability ladder: every combine and fan-out step runs in
// NI memory, so GeNIMA still takes zero interrupts with collectives on.
func TestCollectivesKeepGeNIMAInterruptFree(t *testing.T) {
	a, _ := appByName(t, "fft")
	res, _, err := genima.Run(clos2Config(true), genima.GeNIMA, a)
	if err != nil {
		t.Fatal(err)
	}
	if res.Acct.Interrupts != 0 {
		t.Errorf("GeNIMA with collectives took %d interrupts", res.Acct.Interrupts)
	}
}

// TestTreeBeatsFlat is the acceptance bar: at 128 nodes the
// NI-firmware tree barrier must finish barrierbench at least 2x faster
// than the flat Nodes-1 fan-out.
func TestTreeBeatsFlat(t *testing.T) {
	e, ok := apps.ByName(apps.Test, "barrierbench")
	if !ok {
		t.Fatal("barrierbench not resolvable")
	}
	flat, _, err := genima.Run(scaleConfig(128, false), genima.GeNIMA, e.App)
	if err != nil {
		t.Fatal(err)
	}
	tree, _, err := genima.Run(scaleConfig(128, true), genima.GeNIMA, e.App)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Elapsed*2 > flat.Elapsed {
		t.Errorf("tree barrier %d ns not 2x better than flat %d ns at 128 nodes",
			tree.Elapsed, flat.Elapsed)
	}
}

// TestCollectivesSurviveFaults runs a 64-node collective-tree run
// under the 1%%-drop mixed fault plan: go-back-N sits underneath the
// tree edges, so the run must complete and validate.
func TestCollectivesSurviveFaults(t *testing.T) {
	e, ok := apps.ByName(apps.Test, "barrierbench")
	if !ok {
		t.Fatal("barrierbench not resolvable")
	}
	cfg := scaleConfig(64, true)
	cfg.Faults = genima.FaultMix(0.01, 42)
	res, ws, err := genima.Run(cfg, genima.GeNIMA, e.App)
	if err != nil {
		t.Fatal(err)
	}
	seqCfg := scaleConfig(64, true)
	_, seqWS, err := genima.RunSequential(seqCfg, e.App)
	if err != nil {
		t.Fatal(err)
	}
	if err := genima.Validate(e.App, ws, seqWS); err != nil {
		t.Error(err)
	}
	if res.Faults.DropsInjected == 0 {
		t.Error("fault plan injected no drops — plan not exercising the tree")
	}
}

// TestSwitchUtilIsBusiestSingleSwitch: Util.Switch is the busiest single
// switch's busy fraction, so it never exceeds 1, while a stage total in
// SwitchStage sums every switch of the stage and may. The 256-node
// radix-16 fat-tree tree barrier loads its stages past the elapsed
// time, the case where a max over stage totals read above 100%.
func TestSwitchUtilIsBusiestSingleSwitch(t *testing.T) {
	e, ok := apps.ByName(apps.Test, "barrierbench")
	if !ok {
		t.Fatal("barrierbench not resolvable")
	}
	cfg := genima.DefaultConfig()
	cfg.Nodes, cfg.ProcsPerNode = 256, 1
	cfg.Topo, cfg.SwitchRadix = genima.TopoFatTree, 16
	cfg.Collectives = true
	res, _, err := genima.Run(cfg, genima.GeNIMA, e.App)
	if err != nil {
		t.Fatal(err)
	}
	if u := res.Util.Switch; u <= 0 || u > 1 {
		t.Errorf("Util.Switch = %.3f, want in (0, 1]", u)
	}
	var busiestStage float64
	for _, b := range res.Util.SwitchStage {
		busiestStage = max(busiestStage, float64(b)/float64(res.Elapsed))
	}
	if busiestStage <= 1 {
		t.Errorf("busiest stage total %.3f of elapsed; the probe no longer loads a stage past 100%%", busiestStage)
	}
}
