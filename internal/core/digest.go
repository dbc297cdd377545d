package core

import (
	"sort"

	"genima/internal/sim"
)

// DigestInto folds the whole protocol system's live state — per-node
// page tables, vector clocks, flat version-vector tables, lock caches,
// barrier epoch rings, the protocol process's mailbox, and the pooled
// free lists — into d, for checkpoint verification. Maps are folded in
// sorted key order; pooled free lists contribute their lengths (their
// pointer identities are not portable across processes).
func (s *System) DigestInto(d *sim.Digest) {
	d.U64(uint64(s.Kind))
	d.U64(uint64(len(s.Nodes)))
	for _, n := range s.Nodes {
		n.digestInto(d)
	}
}

func (n *Node) digestInto(d *sim.Digest) {
	if n.Mem != nil {
		n.Mem.DigestInto(d)
	}
	for _, st := range n.state {
		d.U64(uint64(st))
	}
	for i := range n.fetching {
		d.Bool(n.fetching[i])
		d.U64(uint64(n.fetchQ[i].Len()))
	}
	for i := range n.homeWaitQ {
		d.U64(uint64(n.homeWaitQ[i].Len()))
	}
	for _, v := range n.vc {
		d.U64(v)
	}
	for i, c := range n.arrived {
		d.U64(c)
		d.U64(uint64(len(n.log[i])))
	}
	n.need.digestInto(d)
	n.copyVer.digestInto(d)
	n.homeVer.digestInto(d)
	for _, set := range n.copyVerSet {
		d.Bool(set)
	}
	for _, dirty := range n.dirtySet {
		d.Bool(dirty)
	}
	d.U64(uint64(len(n.dirtyList)))
	n.ivGate.DigestInto(d)

	pages := make([]int, 0, len(n.pendingReqs))
	for pg := range n.pendingReqs {
		pages = append(pages, pg)
	}
	sort.Ints(pages)
	for _, pg := range pages {
		d.U64(uint64(pg))
		d.U64(uint64(len(n.pendingReqs[pg])))
	}

	ids := make([]int, 0, len(n.locks))
	for id := range n.locks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		lk := n.locks[id]
		d.U64(uint64(id))
		d.Bool(lk.cached)
		d.Bool(lk.held)
		d.Bool(lk.requesting)
		d.Bool(lk.releasing)
		d.U64(uint64(lk.localQ.Len()))
		d.Bool(lk.wantGrant)
		d.Bool(lk.pendingReq)
		d.U64(uint64(lk.pendingRequester))
	}
	ids = ids[:0]
	for id := range n.lockDir {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		d.U64(uint64(id))
		d.U64(uint64(n.lockDir[id].lastOwner))
	}

	// The protocol process: its queued messages and whether it is
	// parked idle in the mailbox (its stack, like every compute
	// processor's, is not digested).
	d.U64(uint64(n.mb.Len()))
	for _, m := range n.mb.Queued() {
		d.U64(uint64(m.Src))
		d.U64(uint64(m.Kind))
	}
	d.U64(uint64(n.mb.Waiting()))

	d.U64(uint64(n.barSeq))
	d.U64(n.lastBarSelfSeq)
	for i := range n.barEpochs {
		e := &n.barEpochs[i]
		d.U64(uint64(e.seq))
		d.U64(e.count.Value())
		for _, v := range e.vc {
			d.U64(v)
		}
		d.Bool(e.flag.IsSet())
		d.Bool(e.rel != nil)
		d.U64(uint64(e.localArrived))
		d.Bool(e.localDone.IsSet())
		d.U64(uint64(e.mArrived))
		// A slot with no master aggregation folds as the zeros a
		// dense vector would hold.
		for i := range n.vc {
			var v uint64
			if e.mVC != nil {
				v = e.mVC[i]
			}
			d.U64(v)
		}
		d.U64(uint64(len(e.mIvs)))
	}

	for _, t := range n.steal {
		d.I64(t)
	}
	d.U64(uint64(n.victim))

	// Pooled free lists and arenas: lengths only.
	d.U64(uint64(len(n.pageReqs.free)))
	d.U64(uint64(len(n.fetches.free)))
	d.U64(uint64(len(n.diffs.free)))
	d.U64(uint64(len(n.lockReqs.free)))
	d.U64(uint64(len(n.grants.free)))
	d.U64(uint64(len(n.vcMsgs.free)))
	d.U64(uint64(len(n.runDeps.free)))
	d.U64(uint64(len(n.verMarks.free)))
	d.U64(uint64(len(n.sgDeps.free)))
	d.U64(uint64(len(n.invFree)))
	d.U64(uint64(len(n.ivChunk)))
	d.U64(uint64(len(n.ivPages)))

	n.Acct.DigestInto(d)
}

func (t *vecTable) digestInto(d *sim.Digest) {
	for _, v := range t.a {
		d.U64(v)
	}
}
