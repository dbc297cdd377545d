package genima_test

// Pool-drift regression: every pooled protocol record and page buffer
// returns to the node that allocated it, so a node's pools settle at
// the in-flight window of the protocol and stop growing. A record freed
// into its consumer's pool instead drifts one way on every one-way flow
// (barrier arrivals into the master, diffs into the home, page
// snapshots into the requester): the producer keeps missing and the
// consumer's free list grows with run length.

import (
	"testing"

	genima "genima"
	"genima/internal/apps/barrierbench"
	"genima/internal/apps/svmkv"
)

// poolUse runs a on cfg under proto and returns the run-end pool
// footprint (largest per-node misses and free-list total).
func poolUse(t *testing.T, cfg genima.Config, proto genima.Protocol, a genima.App) (misses, free uint64) {
	t.Helper()
	res, _, err := genima.Run(cfg, proto, a)
	if err != nil {
		t.Fatal(err)
	}
	return res.PoolMisses, res.PoolFree
}

// checkNoDrift runs the short and long (4x) variants. Without drift a
// pool settles at the high-water mark of its in-flight window, which
// creeps up only as rarer bursts occur in a longer run; with drift it
// grows in proportion to run length. So the long run's per-node pool
// misses and free lists may exceed the short run's by at most a
// quarter. It returns the long run's misses.
func checkNoDrift(t *testing.T, name string, cfg genima.Config, proto genima.Protocol, short, long genima.App) uint64 {
	t.Helper()
	sm, sf := poolUse(t, cfg, proto, short)
	lm, lf := poolUse(t, cfg, proto, long)
	t.Logf("%s/%v: misses %d -> %d, free %d -> %d", name, proto, sm, lm, sf, lf)
	if lm > sm+sm/4 || lf > sf+sf/4 {
		t.Errorf("%s/%v: pools grow with run length: misses %d -> %d, free %d -> %d",
			name, proto, sm, lm, sf, lf)
	}
	return lm
}

// Barrier arrivals and releases live in per-node two-slot rings, so
// barrierbench (whose only shared write is to a page homed at the
// writer) needs no pooled record at all; the flat footprint guards the
// master against collecting every node's arrival records.
func TestPoolsDoNotDriftBarrier(t *testing.T) {
	cfg := genima.DefaultConfig()
	cfg.Nodes, cfg.ProcsPerNode = 32, 1
	cfg.Topo, cfg.SwitchRadix = genima.TopoClos2, 8
	const r = 8
	for _, proto := range []genima.Protocol{genima.Base, genima.DW} {
		checkNoDrift(t, "barrierbench", cfg, proto, barrierbench.New(r), barrierbench.New(4*r))
	}
}

func TestPoolsDoNotDriftSvmkv(t *testing.T) {
	p := svmkv.DefaultParams(false)
	long := p
	long.Requests *= 4
	if checkNoDrift(t, "svmkv", genima.DefaultConfig(), genima.Base, svmkv.New(p), svmkv.New(long)) == 0 {
		t.Fatal("svmkv/Base: no pool misses at all; the probe measures nothing")
	}
}
