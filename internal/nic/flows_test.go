package nic

import (
	"testing"

	"genima/internal/sim"
	"genima/internal/topo"
)

// countSink counts completed tree-barrier epochs per node.
type countSink struct{ done []sim.Counter }

func (s *countSink) ColBarrierDone(node, _ int, _ []uint64) { s.done[node].Add(1) }

// A pure NI tree barrier under faults talks only to tree neighbours,
// so every NI must hold reliable-delivery flows for its parent and
// children alone — at most arity+1 peers, not the Nodes-1 a dense
// per-peer table would build.
func TestRelFlowsOnlyForTreeNeighbours(t *testing.T) {
	const nodes, rounds = 64, 6
	eng := sim.NewEngine()
	cfg := topo.Default()
	cfg.Nodes, cfg.ProcsPerNode = nodes, 1
	cfg.Topo, cfg.SwitchRadix = topo.TopoClos2, 16
	cfg.Faults = topo.FaultMix(0.02, 11)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(eng, &cfg)
	sink := &countSink{done: make([]sim.Counter, nodes)}
	for _, ni := range sys.NIs {
		ni.EnableCollectives(cfg.CollectiveArity, sink)
	}
	for i, ni := range sys.NIs {
		i, ni := i, ni
		vc := make([]uint64, nodes)
		eng.Go("leader", func(p *sim.Proc) {
			for seq := 0; seq < rounds; seq++ {
				vc[i] = uint64(seq + 1)
				ni.ColBarrierArrive(p, seq, vc)
				sink.done[i].WaitFor(p, uint64(seq+1))
			}
		})
	}
	eng.RunUntilQuiet()
	for i := range sink.done {
		if got := sink.done[i].Value(); got != rounds {
			t.Fatalf("node %d finished %d barriers, want %d", i, got, rounds)
		}
	}
	if sys.RelReport().RetxSent == 0 {
		t.Fatal("no retransmissions: the fault plan did not exercise reliable delivery")
	}

	k := cfg.CollectiveArity
	for id, ni := range sys.NIs {
		neighbour := map[int]bool{colParent(id, 0, nodes, k): true}
		for j := 1; j <= k; j++ {
			neighbour[colChild(id, 0, nodes, k, j)] = true
		}
		built := 0
		for peer, f := range ni.rel.flows {
			if f == nil {
				continue
			}
			built++
			if !neighbour[peer] {
				t.Errorf("NI %d built a flow for %d, which is not a tree neighbour", id, peer)
			}
		}
		if built == 0 || built > k+1 {
			t.Errorf("NI %d holds %d flows, want 1..%d", id, built, k+1)
		}
	}
}

// A never-built flow folds into the digest exactly like a zeroed flow,
// so a checkpoint digest does not depend on which flows exist.
func TestRelUnbuiltFlowDigestsAsZero(t *testing.T) {
	fp := topo.FaultPlan{Enabled: true, Seed: 21, DropRate: 0.2}
	eng, sys, _ := newFaultySystem(t, fp)
	sendBurst(eng, sys, 10, 256)
	r := sys.NIs[0].rel
	if r.flows[1] == nil {
		t.Fatal("no flow to the burst's destination")
	}
	sparse := sim.NewDigest()
	r.digestInto(sparse)
	unbuilt := 0
	for peer, f := range r.flows {
		if f == nil {
			r.flows[peer] = &relFlow{}
			unbuilt++
		}
	}
	if unbuilt == 0 {
		t.Fatal("every flow was built; nothing to compare")
	}
	dense := sim.NewDigest()
	r.digestInto(dense)
	if sparse.Sum() != dense.Sum() {
		t.Errorf("sparse digest %#x != dense-with-zero-flows digest %#x", sparse.Sum(), dense.Sum())
	}
}
