package genima_test

// Serial trace goldens: the canonical packet-trace hash (see traceHash)
// of every configuration family the simulator's determinism rests on —
// the protocol ladder's interrupt, NI-lock and remote-fetch paths, the
// multi-stage clos2 fabric with and without NI collectives, the 128-
// and 512-node barrierbench fabrics, and the svmkv serving workload —
// each clean and under 1% seeded faults. Any change to event order,
// timing or event count on one of these paths moves a hash; a PR that
// moves one must say why.

import (
	"testing"

	genima "genima"
)

// goldenFabric is a fabric override for one golden point; the zero
// value keeps DefaultConfig's cluster.
type goldenFabric struct {
	nodes       int // 0 keeps the default node count and ProcsPerNode
	topo        genima.Topology
	radix       int // 0 keeps the default single switch
	collectives bool
}

// config returns the point's configuration: DefaultConfig, then the
// fabric override, then 1% seeded faults if asked for. A node count
// sets ProcsPerNode to 1, the barrierbench/svmkv scale shape.
func (f goldenFabric) config(faults bool) genima.Config {
	cfg := genima.DefaultConfig()
	if f.nodes > 0 {
		cfg.Nodes, cfg.ProcsPerNode = f.nodes, 1
	}
	if f.radix > 0 {
		cfg.Topo, cfg.SwitchRadix = f.topo, f.radix
	}
	cfg.Collectives = f.collectives
	if faults {
		cfg.Faults = genima.FaultMix(0.01, 42)
	}
	return cfg
}

var (
	// defaultFabric is the default 4-node single-switch cluster.
	defaultFabric goldenFabric
	// clos2Small is the default cluster on a radix-4 clos2: two hosts
	// per leaf, so cross-leaf routes take 3 switch hops even at 4 nodes.
	clos2Small     = goldenFabric{topo: genima.TopoClos2, radix: 4}
	clos2SmallColl = goldenFabric{topo: genima.TopoClos2, radix: 4, collectives: true}
	clos2Of64      = goldenFabric{nodes: 64, topo: genima.TopoClos2, radix: 16, collectives: true}
	clos2Of128     = goldenFabric{nodes: 128, topo: genima.TopoClos2, radix: 16, collectives: true}
	fatTreeOf512   = goldenFabric{nodes: 512, topo: genima.TopoFatTree, radix: 16}
)

// serialGoldens were recorded on the serial engine. Rows come in
// clean/faulted pairs.
var serialGoldens = []struct {
	name   string
	app    string
	proto  genima.Protocol
	fabric goldenFabric
	faults bool
	want   string
}{
	{"fft_Base", "fft", genima.Base, defaultFabric, false, "ff9fed61efeb81509d901807de7eb3ceda4096f1958061db68305fcfde959ed6"},
	{"fft_Base_faults", "fft", genima.Base, defaultFabric, true, "b569b9e4a5781087341ba18edc1b3ce8c87b5a728d63b7255253e6153ea387d7"},
	{"lu_DWRF", "lu", genima.DWRF, defaultFabric, false, "343634d4ed3930ede93cf2e5bac7306b756e1f4a980a32ab711805cb363d9177"},
	{"lu_DWRF_faults", "lu", genima.DWRF, defaultFabric, true, "0e1e48dcb309a4ddf32124d48f82baf4138b26a6b625503f34039763aa26a7f9"},
	{"water-nsq_GeNIMA", "water-nsq", genima.GeNIMA, defaultFabric, false, "dafa10df04a99cf51e0e52e9cfe403e869a7f1730c6a6ba28972871e88d299ef"},
	{"water-nsq_GeNIMA_faults", "water-nsq", genima.GeNIMA, defaultFabric, true, "fe74d5c4d03f7117d5009407bce0d91ad352341bf0a3c2f560af0e93c831ffde"},

	{"clos2_fft_Base", "fft", genima.Base, clos2Small, false, "dc2555ac3c6334544ec7bb876dfaf95b1328e2d541b002bdadee1045e802a967"},
	{"clos2_fft_Base_faults", "fft", genima.Base, clos2Small, true, "07a492e728bef030ef34320c66839b79ce6572fc4181dc2ddc40094c64a10aa7"},
	{"clos2_fft_GeNIMA_coll", "fft", genima.GeNIMA, clos2SmallColl, false, "f3d422ce08d1f15fdbec0017d5f74cec57c49358259feb0b78cded16811e086f"},
	{"clos2_fft_GeNIMA_coll_faults", "fft", genima.GeNIMA, clos2SmallColl, true, "962bfa269ad359a1ac81d4361faabd7de58e8e98ad47e2fe40fb422c47514626"},
	{"clos2_water-nsq_GeNIMA_coll", "water-nsq", genima.GeNIMA, clos2SmallColl, false, "38670151aee755825a4206b586f3d0e10209002e80a1cf45e7e536006e41d1d0"},
	{"clos2_water-nsq_GeNIMA_coll_faults", "water-nsq", genima.GeNIMA, clos2SmallColl, true, "1e1f3021cce72e7d876798664048866c6cee725679e97da087342db91b3c7e30"},

	// NI-firmware collective tree on a 2-stage clos: fabric-heavy.
	{"barrierbench_clos2-128_GeNIMA", "barrierbench", genima.GeNIMA, clos2Of128, false, "090088af80fed1029f06f7ab8cfeef34975af97ed9d1e4f440216f1d2c9e0417"},
	{"barrierbench_clos2-128_GeNIMA_faults", "barrierbench", genima.GeNIMA, clos2Of128, true, "20382efb1d78c0c5bf0716c724aa266b671ec6f24443681d9de4e5192aa28181"},
	// Flat interrupt barrier on a 3-stage fat tree: interrupt-heavy.
	{"barrierbench_fattree-512_Base", "barrierbench", genima.Base, fatTreeOf512, false, "749e5282bc7207cc0e20f23a029d062a42e7de30c8140b64403a3cb8115526d1"},
	{"barrierbench_fattree-512_Base_faults", "barrierbench", genima.Base, fatTreeOf512, true, "100867ea9cbfae93dd4e7ed5448d79d42046ab82b09304a52a0b48d7c6e9a31d"},

	// Checked by TestSvmkvTraceByteIdentical and
	// TestSvmkvScaleTraceByteIdentical. svmkv_Base and
	// svmkv_GeNIMA_faults are the two smoke-serve rungs.
	{"svmkv_Base", "svmkv", genima.Base, defaultFabric, false, "528ab3d65a6958c3ffd37a6bf72584bdcbce5391b2d71e8da30fe4e13e3adc64"},
	{"svmkv_Base_faults", "svmkv", genima.Base, defaultFabric, true, "b7ce39b3363c7b195999cb01e236e68c4c4ac464b0390e06e0339ed1c914a20f"},
	{"svmkv_GeNIMA", "svmkv", genima.GeNIMA, defaultFabric, false, "0eddd62119784559c1ebe364c9508101de78f30ac3e55f00749b0a56291e3a7f"},
	{"svmkv_GeNIMA_faults", "svmkv", genima.GeNIMA, defaultFabric, true, "ebe595b0ed6bb89822a8cc0a02deb1b0f81a0fc7ade89d5953bd478f3087c65c"},
	{"svmkv_clos2-64_GeNIMA", "svmkv", genima.GeNIMA, clos2Of64, false, "bfe05d9866b244a9fa1460531a405d2162a31e3e4073a25c1fe982b3c1ad18a3"},
	{"svmkv_clos2-64_GeNIMA_faults", "svmkv", genima.GeNIMA, clos2Of64, true, "9a834c4b0d26cef3ddb107a1b812c9b0572089ae9a4aac52da231e4779d20695"},
	{"svmkv_fattree-512_Base", "svmkv", genima.Base, fatTreeOf512, false, "d125587f0fa1dd1b5e0093654c04fa6b467f2d61f81867a6cb0badd30a56100c"},
	{"svmkv_fattree-512_Base_faults", "svmkv", genima.Base, fatTreeOf512, true, "d23bcc1c0bd54f6f9a7d712d812d36dcc38c5f5053bb5919151401626e24becd"},
}

// checkGoldens checks every golden point that pick selects. The
// 512-node points are skipped under -short: they dominate the
// race-detector budget.
func checkGoldens(t *testing.T, pick func(app string, f goldenFabric) bool) {
	for _, g := range serialGoldens {
		if !pick(g.app, g.fabric) {
			continue
		}
		t.Run(g.name, func(t *testing.T) {
			if g.fabric.nodes >= 512 && testing.Short() {
				t.Skip("512-node point skipped under -short")
			}
			if got := traceHash(t, g.app, g.proto, g.fabric.config(g.faults)); got != g.want {
				t.Errorf("trace hash drifted:\n got %s\nwant %s", got, g.want)
			}
		})
	}
}

// The four tests below keep the names of the parallel-vs-serial
// determinism checks they replace. Each compares the serial engine
// against the golden rows for the configurations it used to compare
// across worker counts; the svmkv rows are checked by the svmkv tests.

// TestIntraRunTraceByteIdentical checks the protocol ladder points on
// the default cluster: the interrupt path (fft/Base), direct writes
// with remote fetch (lu/DWRF) and the NI-lock path (water-nsq/GeNIMA).
func TestIntraRunTraceByteIdentical(t *testing.T) {
	checkGoldens(t, func(app string, f goldenFabric) bool { return app != "svmkv" && f == defaultFabric })
}

// TestIntraRunMultiStageTraceByteIdentical checks the radix-4 clos2
// points, where cross-leaf packets cross intermediate switches, with
// and without NI collectives.
func TestIntraRunMultiStageTraceByteIdentical(t *testing.T) {
	checkGoldens(t, func(_ string, f goldenFabric) bool { return f == clos2Small || f == clos2SmallColl })
}

// TestIntraRunScaleTraceByteIdentical checks the at-scale barrierbench
// points: a 128-node clos2 and a 512-node fat tree (skipped under
// -short).
func TestIntraRunScaleTraceByteIdentical(t *testing.T) {
	checkGoldens(t, func(app string, _ goldenFabric) bool { return app == "barrierbench" })
}

// TestIntraRunSerialMatchesGolden checks that the deprecated
// Config.IntraRunWorkers is inert: whatever it is set to, a run is the
// serial engine the goldens were recorded on.
func TestIntraRunSerialMatchesGolden(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := genima.DefaultConfig()
		cfg.IntraRunWorkers = workers
		if got := traceHash(t, "fft", genima.Base, cfg); got != goldenFFTBase {
			t.Errorf("IntraRunWorkers=%d fft/Base drifted from golden:\n got %s\nwant %s", workers, got, goldenFFTBase)
		}
		if got := traceHash(t, "water-nsq", genima.GeNIMA, cfg); got != goldenWaterGeNIMA {
			t.Errorf("IntraRunWorkers=%d water-nsq/GeNIMA drifted from golden:\n got %s\nwant %s", workers, got, goldenWaterGeNIMA)
		}
	}
}
