package core

import (
	"genima/internal/memory"
	"genima/internal/nic"
)

// Deterministic free lists for protocol records, one set per node.
//
// Ownership rule (see DESIGN.md §7): a record belongs to the node that
// allocated it for its whole life. It is taken from that node's free
// list, travels through the protocol as a typed packet payload, and the
// single party the protocol designates as its final consumer — often
// another node — hands it back with release, which returns it to the
// origin's list. A one-way flow (writer -> home diffs, home -> requester
// page snapshots) therefore recycles the producer's records instead of
// growing the consumer's list while the producer keeps allocating.
// Embedded sim.Flag values are Reset (not reallocated) when a record is
// recycled, which is safe only after the flag's waiters have resumed —
// the protocol guarantees a record's waiter has consumed the result
// before the record is released.

// freeList is one node's LIFO free list of one record type. misses
// counts gets that found the list empty and allocated a fresh record.
type freeList[T any] struct {
	free   []*T
	misses uint64
}

// get pops a record, or allocates one and lets fresh attach its origin
// and per-record storage (fresh must not capture variables, so passing
// it allocates nothing).
func (f *freeList[T]) get(n *Node, fresh func(n *Node, r *T)) *T {
	if k := len(f.free); k > 0 {
		r := f.free[k-1]
		f.free[k-1] = nil
		f.free = f.free[:k-1]
		return r
	}
	f.misses++
	r := new(T)
	fresh(n, r)
	return r
}

func (f *freeList[T]) put(r *T) { f.free = append(f.free, r) }

// tally adds the list's misses and parked records to the running totals.
func (f *freeList[T]) tally(misses, free *uint64) {
	*misses += f.misses
	*free += uint64(len(f.free))
}

// PoolUse reports the largest per-node totals, over every record free
// list and the page-buffer pool, of pool misses (fresh allocations) and
// of records and buffers parked on free lists. Because records return
// to the node that allocated them, both stay flat as a run grows longer.
func (s *System) PoolUse() (misses, free uint64) {
	for _, n := range s.Nodes {
		var m, f uint64
		n.pageReqs.tally(&m, &f)
		n.fetches.tally(&m, &f)
		n.diffs.tally(&m, &f)
		n.lockReqs.tally(&m, &f)
		n.grants.tally(&m, &f)
		n.vcMsgs.tally(&m, &f)
		n.runDeps.tally(&m, &f)
		n.verMarks.tally(&m, &f)
		n.sgDeps.tally(&m, &f)
		if n.Mem != nil {
			m, f = m+n.Mem.Pool().Allocs, f+uint64(n.Mem.Pool().Len())
		}
		misses, free = max(misses, m), max(free, f)
	}
	return misses, free
}

func (n *Node) getPageReq() *pageReqMsg {
	return n.pageReqs.get(n, func(n *Node, r *pageReqMsg) { r.need = make([]uint64, n.sys.Cfg.Nodes) })
}

// putPageReq recycles a page request (the requester both allocates and
// consumes it, so it never leaves its origin).
func (n *Node) putPageReq(r *pageReqMsg) {
	r.reply = nil
	r.done.Reset()
	n.pageReqs.put(r)
}

// snapshot copies a page homed here and its applied-version row into a
// payload drawn from this node's pools (NI remote fetch and Base page
// reply alike); the requester releases it back here once installed.
func (n *Node) snapshot(page int) *fetchPayload {
	pl := n.fetches.get(n, func(n *Node, pl *fetchPayload) { pl.home, pl.ver = n, make([]uint64, n.sys.Cfg.Nodes) })
	pl.data = n.Mem.Pool().Get()
	copy(pl.data, n.sys.Space.HomeCopy(page))
	copy(pl.ver, n.homeVer.row(page))
	return pl
}

// release returns the page buffer and the record to the home.
func (pl *fetchPayload) release() {
	pl.home.Mem.Pool().Put(pl.data)
	pl.data = nil
	pl.home.fetches.put(pl)
}

// getDiff presizes fresh records so DiffCopy does not regrow runs/buf
// word by word on first use (buf holds at most one page of changed
// bytes).
func (n *Node) getDiff() *diffMsg {
	return n.diffs.get(n, func(n *Node, d *diffMsg) {
		d.origin = n
		d.runs = make([]memory.Run, 0, 64)
		d.buf = make([]byte, 0, n.sys.Cfg.PageSize)
	})
}

// release returns the record to the node that allocated it.
func (d *diffMsg) release() {
	d.runs = d.runs[:0]
	d.origin.diffs.put(d)
}

func (n *Node) getLockReq() *lockReqMsg {
	return n.lockReqs.get(n, func(n *Node, r *lockReqMsg) { r.origin, r.reqVC = n, make([]uint64, n.sys.Cfg.Nodes) })
}

// release returns the record to the node that allocated it.
func (r *lockReqMsg) release() { r.origin.lockReqs.put(r) }

func (n *Node) getGrant() *lockGrant {
	return n.grants.get(n, func(n *Node, g *lockGrant) { g.origin, g.vc = n, make([]uint64, n.sys.Cfg.Nodes) })
}

// release returns the record to the node that allocated it.
func (g *lockGrant) release() {
	g.intervals = g.intervals[:0]
	g.origin.grants.put(g)
}

func (n *Node) getVCMsg() *vcMsg {
	return n.vcMsgs.get(n, func(n *Node, m *vcMsg) { m.origin, m.vc = n, make([]uint64, n.sys.Cfg.Nodes) })
}

// release returns the record to the node that allocated it.
func (m *vcMsg) release() { m.origin.vcMsgs.put(m) }

func (n *Node) getRunDep() *runDep {
	return n.runDeps.get(n, func(n *Node, r *runDep) { r.origin = n })
}

// release returns the record to the node that allocated it.
func (r *runDep) release() {
	r.run = memory.Run{}
	r.origin.runDeps.put(r)
}

func (n *Node) getVerMark() *verMark {
	return n.verMarks.get(n, func(n *Node, v *verMark) { v.origin = n })
}

// release returns the record to the node that allocated it.
func (v *verMark) release() {
	v.d = nil
	v.origin.verMarks.put(v)
}

func (n *Node) getSGDep() *sgDep {
	return n.sgDeps.get(n, func(n *Node, m *sgDep) { m.origin = n })
}

// release returns the record to the node that allocated it.
func (m *sgDep) release() {
	m.d = nil
	m.origin.sgDeps.put(m)
}

// getInv returns a zero-length invalidation scratch slice. applyUpTo can
// nest (closePageEarly yields and another processor may enter applyUpTo),
// so the scratch comes from a free list rather than a single field.
func (n *Node) getInv() []int {
	if k := len(n.invFree); k > 0 {
		s := n.invFree[k-1]
		n.invFree[k-1] = nil
		n.invFree = n.invFree[:k-1]
		return s[:0]
	}
	return make([]int, 0, 16)
}

func (n *Node) putInv(s []int) {
	n.invFree = append(n.invFree, s)
}

// Shared packet deliverers: singletons invoked by the NI when the final
// packet of a protocol message lands. Stateless ones are package-level;
// the ones that must map pkt.Dst to a *Node live on System.

// pageReplyDeliver completes a Base page fetch: the home attached its
// snapshot to the request record at reply time, so delivery only wakes
// the requester.
type pageReplyDeliver struct{}

var pageReplyDel pageReplyDeliver

func (pageReplyDeliver) Deliver(pkt *nic.Packet) { pkt.Payload.(*pageReqMsg).done.Set() }

// runDepDeliver applies one direct-diff run into the home copy (DD: the
// destination NI deposits the run, no host involvement) and releases
// the record back to its origin.
type runDepDeliver struct{}

var runDepDel runDepDeliver

func (runDepDeliver) Deliver(pkt *nic.Packet) {
	rd := pkt.Payload.(*runDep)
	memory.ApplyRun(rd.origin.sys.Space.HomeCopy(rd.pg), rd.run)
	rd.release()
}

// verMarkDeliver lands a direct-diff version marker. Per-pair FIFO
// delivery guarantees the run deposits (sent first) have already been
// applied, so the diff record whose buffer they aliased can be released
// along with the marker.
type verMarkDeliver struct{}

var verMarkDel verMarkDeliver

func (verMarkDeliver) Deliver(pkt *nic.Packet) {
	vm := pkt.Payload.(*verMark)
	vm.home.bumpVersion(vm.pg, vm.origin.ID, vm.seq)
	if vm.d != nil {
		vm.d.release()
	}
	vm.release()
}

// noticeDeliver records an eagerly deposited write notice at pkt.Dst
// (DW). Intervals are arena-allocated and live for the whole run, so no
// refcounting is needed.
type noticeDeliver struct{ s *System }

func (d *noticeDeliver) Deliver(pkt *nic.Packet) {
	d.s.Nodes[pkt.Dst].depositNotice(pkt.Payload.(*interval))
}

// grantDeliver hands a lock grant to the waiting requester at pkt.Dst.
type grantDeliver struct{ s *System }

func (d *grantDeliver) Deliver(pkt *nic.Packet) {
	d.s.Nodes[pkt.Dst].receiveGrant(pkt.Payload.(*lockGrant))
}

// barFlagDeliver lands a DW barrier arrival flag at pkt.Dst. The record
// is the sender's arrival ring slot, read here and never freed (see
// Node.arrival).
type barFlagDeliver struct{ s *System }

func (d *barFlagDeliver) Deliver(pkt *nic.Packet) {
	d.s.Nodes[pkt.Dst].depositBarFlag(pkt.Payload.(*barArriveMsg))
}
