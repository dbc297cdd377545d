package core

import (
	"genima/internal/memory"
	"genima/internal/sim"
	"genima/internal/vmmc"
)

// Page fault handling: read faults fetch the page from its home (via an
// interrupt-serviced request in Base, via NI remote fetch with retry in
// RF and later); write faults additionally create a twin. Faults are the
// "Data wait time" component of the paper's breakdowns.

// pendingPage is a queued Base-protocol page request at the home that
// cannot be answered until pending diffs arrive.
type pendingPage struct {
	src int
	msg *pageReqMsg
}

// fetchPayload is a page snapshot: the home copy and the home's
// applied-version row at snapshot time, returned by an NI remote fetch
// or attached to a Base page reply. The home draws it from its own
// pools (Node.snapshot) and the requester releases it back there once
// the snapshot is consumed.
type fetchPayload struct {
	home *Node
	data []byte // from the home's page-buffer pool
	ver  []uint64
}

// pageReqMsg is the Base-protocol page request record. It is pooled at
// the requester and doubles as the reply carrier: the home attaches its
// snapshot at reply time and delivery raises done (the requester reads
// reply only after done, so attaching it early is safe).
type pageReqMsg struct {
	page  int
	need  []uint64 // requester's requirement row (copied at send time)
	done  sim.Flag
	reply *fetchPayload
}

const (
	pageReqOverhead   = 32 // request header bytes
	pageReplyOverhead = 32 // reply header + version row
	diffMsgOverhead   = 16
	runHeader         = 8
	lockMsgOverhead   = 16
)

// EnsureReadable makes pages [first, last] readable by the calling
// processor, fetching any missing ones. All blocking time is virtual
// (the caller's harness attributes the elapsed time to Data wait).
func (n *Node) EnsureReadable(p *sim.Proc, first, last int) {
	for pg := first; pg <= last; pg++ {
		n.faultIn(p, pg)
	}
}

// EnsureWritable makes pages [first, last] writable: readable plus
// twinned (non-home pages) and registered in the open interval. The
// sleeps inside (mprotect, twin copy) yield the processor; another
// processor of the node may invalidate the page meanwhile (applying a
// notice at its own acquire), so every step re-checks page state.
func (n *Node) EnsureWritable(p *sim.Proc, first, last int) {
	c := &n.sys.Cfg.Costs
	for pg := first; pg <= last; pg++ {
		home := n.sys.Space.Home(pg) == n.ID
		for {
			n.faultIn(p, pg)
			dirtyAlready := n.dirtySet[pg]
			if home {
				if !dirtyAlready {
					// Home pages are written in place; the write fault
					// still costs a protection change for tracking.
					p.Sleep(c.MprotectBase)
					n.Acct.Mprotect += c.MprotectBase
					n.Acct.MprotectOps++
					n.markDirty(pg)
				}
				break
			}
			if dirtyAlready && n.Mem.HasTwin(pg) && n.state[pg] == pageValid {
				break
			}
			if !n.Mem.HasTwin(pg) {
				// Write fault: mprotect to RW plus twin creation.
				p.Sleep(c.MprotectBase)
				n.Acct.Mprotect += c.MprotectBase
				n.Acct.MprotectOps++
				p.Sleep(sim.Time(float64(n.sys.Cfg.PageSize) * c.TwinCopyPerByte))
				if n.state[pg] != pageValid {
					continue // invalidated during the sleeps: refetch first
				}
				n.Mem.MakeTwin(pg)
				n.markDirty(pg)
				break
			}
			// A twin exists but the page is not (or no longer cleanly)
			// in the dirty set: an interval close snapshotted the dirty
			// set and is mid-flush on this page. Wait for the close to
			// finish — the twin will be consumed — then retry.
			n.ivGate.Acquire(p)
			n.ivGate.Release()
		}
	}
}

// faultIn ensures one page is present and readable at this node,
// re-checking after every blocking step (a concurrent processor's
// acquire may invalidate the page while this one sleeps).
func (n *Node) faultIn(p *sim.Proc, page int) {
	if n.sys.Space.Home(page) == n.ID {
		// The home copy is the master; a local access must only wait
		// until the diffs this node has seen notices for are applied.
		for !n.needSatisfied(page, n.homeVer.row(page)) {
			n.homeWaitQ[page].Wait(p)
		}
		return
	}
	c := &n.sys.Cfg.Costs
	for n.state[page] != pageValid {
		// Collapse concurrent faults on the same page within the node.
		if n.fetching[page] {
			n.fetchQ[page].Wait(p)
			continue
		}
		n.fetching[page] = true

		var pl *fetchPayload
		if n.sys.Feat.RF {
			pl = n.fetchRF(p, page)
		} else {
			pl = n.fetchBase(p, page)
		}
		copy(n.copyVer.row(page), pl.ver)
		n.copyVerSet[page] = true
		n.installFetched(page, pl.data)
		pl.release() // snapshot consumed
		n.state[page] = pageValid
		// Map the fresh page read-only.
		p.Sleep(c.MprotectBase)
		n.Acct.Mprotect += c.MprotectBase
		n.Acct.MprotectOps++
		n.Acct.PageFetches++

		n.fetching[page] = false
		n.fetchQ[page].WakeAll()
	}
}

// installFetched installs a fetched page. If the page carries unflushed
// local modifications (it was re-dirtied while an interval close or an
// early flush was in progress and then invalidated), those words are
// re-applied on top of the fetched data so they are not lost — the
// multiple-writer guarantee across a refetch. The run scratch is reused
// across calls (no yields happen while it is live).
func (n *Node) installFetched(page int, data []byte) {
	if !n.Mem.HasTwin(page) {
		n.Mem.InstallCopy(page, data)
		return
	}
	n.modsRuns, n.modsBuf = n.Mem.DiffCopy(page, n.modsRuns[:0], n.modsBuf)
	n.Mem.DropTwin(page)
	n.Mem.InstallCopy(page, data)
	n.Mem.MakeTwin(page)
	memory.ApplyRuns(n.Mem.Page(page), n.modsRuns)
}

// fetchBase is the interrupt path: request -> home protocol process ->
// reply deposit. The home queues the request if diffs are pending.
func (n *Node) fetchBase(p *sim.Proc, page int) *fetchPayload {
	home := n.sys.Space.Home(page)
	req := n.getPageReq()
	req.page = page
	for {
		// Another processor in this node may raise the page's
		// requirements (by applying notices) while a request is in
		// flight; each (re-)request snapshots the current row.
		copy(req.need, n.need.row(page))
		n.ep.SendInterrupt(p, home, pageReqOverhead+8*len(req.need), vmmc.MsgPageReq, req)
		req.done.Wait(p)
		if n.needSatisfied(page, req.reply.ver) {
			break
		}
		n.Acct.FetchRetries++
		req.reply.release() // stale snapshot
		req.done.Reset()
	}
	pl := req.reply
	n.putPageReq(req)
	return pl
}

// fetchRF is the NI remote-fetch path with requester retry on stale
// versions (no home processor involvement).
func (n *Node) fetchRF(p *sim.Proc, page int) *fetchPayload {
	home := n.sys.Space.Home(page)
	size := n.sys.Cfg.PageSize + pageReplyOverhead
	for {
		rep := n.ep.RemoteFetch(p, home, size, "page-req", "page-reply", page)
		pl := rep.Payload.(*fetchPayload)
		if n.needSatisfied(page, pl.ver) {
			return pl
		}
		n.Acct.FetchRetries++
		pl.release() // stale snapshot
		p.Sleep(n.sys.Cfg.Costs.FetchRetryBackoff)
	}
}

// serveFetch runs in the home NI's firmware: snapshot the page and its
// version row (released by the requester). No host time is charged.
func (n *Node) serveFetch(req vmmc.FetchReq) vmmc.FetchReply {
	return vmmc.FetchReply{
		Payload: n.snapshot(req.Tag),
		Size:    n.sys.Cfg.PageSize + pageReplyOverhead,
	}
}
