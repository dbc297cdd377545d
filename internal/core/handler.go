package core

import (
	"fmt"

	"genima/internal/memory"
	"genima/internal/sim"
	"genima/internal/vmmc"
)

// The floating protocol process (HLRC-SMP): one per node, scheduled by
// interrupts, servicing incoming asynchronous protocol requests. In the
// Base protocol it handles page requests, packed diff applications, lock
// chain operations, and barrier control; each GeNIMA mechanism removes a
// class of messages from this loop until (GeNIMA) it receives none.
//
// The process is an ordinary sim.Proc serving the node's interrupt
// mailbox (sim.Serve): each message pays the fixed handler cost, then
// runs its body on the same proc-context code the compute processors
// use — closeInterval, grantRemote, DepositTo, SendInterrupt — so there
// is one copy of the release, diff, and grant logic. An idle process
// schedules nothing: it is parked in the mailbox until a message lands.

// localMsg wraps a request a node sends to its own protocol process
// (directory lookups at the local home) — no interrupt, no network.
func localMsg(kind vmmc.MsgKind, payload any) vmmc.Msg {
	return vmmc.Msg{Src: -1, Kind: kind, Payload: payload}
}

// serveMsg is the body of the protocol process's loop: one message.
func (n *Node) serveMsg(p *sim.Proc, m vmmc.Msg) {
	p.Sleep(n.sys.Cfg.Costs.HandlerFixed)
	if m.Src >= 0 {
		n.Acct.Interrupts++
	}
	switch m.Kind {
	case vmmc.MsgPageReq:
		n.handlePageReq(p, m.Src, m.Payload.(*pageReqMsg))
	case vmmc.MsgDiff:
		n.applyPackedDiff(p, m.Payload.(*diffMsg))
	case vmmc.MsgLockReq:
		n.handleLockReq(p, m.Payload.(*lockReqMsg))
	case vmmc.MsgLockFwd:
		n.handleLockFwd(p, m.Payload.(*lockReqMsg))
	case vmmc.MsgBarArrive:
		n.handleBarArrive(p, m.Payload.(*barArriveMsg))
	case vmmc.MsgBarRelease:
		n.handleBarRelease(m.Payload.(*barReleaseMsg))
	default:
		panic(fmt.Sprintf("core: protocol process got unknown message %q", m.Kind))
	}
}

// handlePageReq answers a Base page request from the home copy, or
// queues it until the diffs the requester needs have been applied.
func (n *Node) handlePageReq(p *sim.Proc, src int, req *pageReqMsg) {
	if !vecCovered(req.need, n.homeVer.row(req.page)) {
		n.pendingReqs[req.page] = append(n.pendingReqs[req.page], pendingPage{src: src, msg: req})
		return
	}
	n.sendPageReply(p, src, req)
}

// sendPageReply attaches a snapshot of the home copy and version row to
// the pooled request (the reply rides the request record) and deposits
// it back.
func (n *Node) sendPageReply(p *sim.Proc, src int, req *pageReqMsg) {
	req.reply = n.snapshot(req.page)
	n.ep.DepositTo(p, src, n.sys.Cfg.PageSize+pageReplyOverhead, "page-reply", req, pageReplyDel)
}

// applyPackedDiff applies a Base packed diff to the home copy (paying
// the per-byte handler cost), then answers the queued page requests the
// new version satisfies.
func (n *Node) applyPackedDiff(p *sim.Proc, d *diffMsg) {
	p.Sleep(sim.Time(float64(d.wireSize()) * n.sys.Cfg.Costs.HandlerPerByte))
	memory.ApplyRuns(n.sys.Space.HomeCopy(d.page), d.runs)
	page, src, seq := d.page, d.origin.ID, d.seq
	d.release() // consumed; free before the retry path yields
	n.bumpVersion(page, src, seq)
	reqs := n.pendingReqs[page]
	if len(reqs) == 0 {
		return
	}
	// In-place keep-compaction of the pending queue; the protocol
	// process serializes all mutation of it, so compaction across the
	// reply sends is safe (new requests only append from handlePageReq,
	// which cannot run until this body finishes).
	keep := 0
	for _, r := range reqs {
		if vecCovered(r.msg.need, n.homeVer.row(page)) {
			n.sendPageReply(p, r.src, r.msg)
			continue
		}
		reqs[keep] = r
		keep++
	}
	for i := keep; i < len(reqs); i++ {
		reqs[i] = pendingPage{}
	}
	n.pendingReqs[page] = reqs[:keep]
}

// handleLockReq runs at a lock's home: advance the chain tail and
// forward the request to the previous owner (or serve it here).
func (n *Node) handleLockReq(p *sim.Proc, req *lockReqMsg) {
	meta := n.lockMetaFor(req.id)
	prev := meta.lastOwner
	meta.lastOwner = req.origin.ID
	if prev == n.ID {
		n.handleLockFwd(p, req)
		return
	}
	n.ep.SendInterrupt(p, prev, lockMsgOverhead+8*len(req.reqVC), vmmc.MsgLockFwd, req)
}

// handleLockFwd services a lock request at the (previous) owner: grant
// it now if the lock is cached and free, otherwise park the requester
// for the next local release. Either way the pooled request is released
// here, back to the requester.
func (n *Node) handleLockFwd(p *sim.Proc, req *lockReqMsg) {
	lk := n.lock(req.id)
	if lk.cached && !lk.held {
		n.grantRemote(p, lk, req.origin.ID, req.reqVC)
		req.release()
		return
	}
	if lk.pendingReq {
		panic(fmt.Sprintf("core: lock %d at node %d already has a pending remote requester", req.id, n.ID))
	}
	lk.pendingReq = true
	lk.pendingRequester = req.origin.ID
	if lk.pendingVC == nil {
		lk.pendingVC = make([]uint64, n.sys.Cfg.Nodes)
	}
	copy(lk.pendingVC, req.reqVC)
	req.release()
}

// handleBarArrive aggregates a barrier arrival at the master; the last
// arrival builds the release and sends it to every node.
func (n *Node) handleBarArrive(p *sim.Proc, m *barArriveMsg) {
	e := n.barEpochAt(m.seq)
	seq := m.seq
	e.mArrived++
	if e.mVC == nil {
		e.mVC = make([]uint64, n.sys.Cfg.Nodes)
	}
	vecMergeMax(e.mVC, m.vc)
	e.mIvs = append(e.mIvs, m.intervals...)
	if e.mArrived < n.sys.Cfg.Nodes {
		return
	}
	// The release is slot seq&1 of the master's release ring: the slot
	// is rebuilt for seq+2 only after every node's seq+2 arrival, and a
	// node arrives at seq+2 only after it has applied this release.
	rel := &n.barRel[seq&1]
	if rel.vc == nil {
		rel.vc = make([]uint64, n.sys.Cfg.Nodes)
	}
	rel.seq = seq
	copy(rel.vc, e.mVC)
	// Hand the interval union to the release record by swapping slices:
	// the epoch keeps the (empty) old backing for its next reuse.
	rel.intervals, e.mIvs = e.mIvs, rel.intervals[:0]
	for dst := 0; dst < n.sys.Cfg.Nodes; dst++ {
		if dst == n.ID {
			n.handleBarRelease(rel)
			continue
		}
		n.ep.SendInterrupt(p, dst, rel.wireSize(), vmmc.MsgBarRelease, rel)
	}
}
