package nic

import (
	"genima/internal/sim"
)

// transit is the pooled state machine that carries one packet through
// the seven-stage send/route/receive pipeline:
//
//	src PCI -> src firmware -> out-link -> switch -> in-link
//	        -> dst firmware -> dst PCI
//
// Each stage completion is scheduled on the owning sim.Resource via
// EnqueueHandler, so advancing a packet costs zero heap allocations:
// the transit record itself is the sim.Handler, and its stage counter
// says which boundary just completed. A broadcast uses one template
// transit for the shared prefix (PCI, firmware, out-link, switch) and
// fans out per-destination transits at the switch, each carrying its
// own pooled Packet copy.
//
// The event *stream* is bit-identical to the old closure pipeline: the
// same resources are reserved in the same order at the same times, and
// EnqueueHandler shares the engine's seq counter with At, so FIFO
// tie-breaks are unchanged. Only the Go-level dispatch changed.
type transit struct {
	ni        *NI // source NI: fabric, peer table, config
	pkt       *Packet
	stage     int8
	holdsSlot bool // release the post-queue slot when the source DMA ends

	// route is the packet's compiled switch path (aliases the topology's
	// flat table — never mutated) and hop the index of the switch whose
	// crossing is underway or just completed. On the single crossbar
	// every route is [0] and the pipeline is call-for-call identical to
	// the one-switch model.
	route []int16
	hop   int8

	// Broadcast template destinations (nil on unicast and per-dst copies).
	dsts []int

	// Broadcast retransmission entries, parallel to dsts, filled at
	// sequence-stamp time when reliable delivery is on (reliable.go).
	// The slice's capacity survives pooling so steady-state broadcasts
	// allocate nothing.
	entries []*retxEntry
}

// Stage values: the boundary that just completed when Run is invoked.
const (
	stSrcPCI  int8 = iota // source DMA into NI memory done
	stSrcFW               // send-side firmware done -> enter the network
	stOutLink             // last byte on the out-link (the inject point)
	stSwitch              // crossbar arbitration done
	stInLink              // last byte at the receiving NI
	stDstFW               // receive-side firmware done
	stDstPCI              // deposit DMA into destination host memory done

	// stFaultDelay holds a packet the fault plan chose to reorder-delay
	// after its in-link crossing; only reachable with faults enabled.
	stFaultDelay
)

// start begins the pipeline at the source DMA stage.
func (t *transit) start() {
	t.stage = stSrcPCI
	t.ni.PCI.EnqueueHandler(t.ni.pciService(t.pkt.Size), t)
}

// startAtFirmware begins the pipeline at the send-firmware stage, for
// firmware-originated packets whose data already lives in NI memory.
func (t *transit) startAtFirmware() {
	t.stage = stSrcFW
	t.ni.Firmware.EnqueueHandler(t.ni.fwSendService(t.pkt.Size)+t.pkt.FwSendExtra, t)
}

// Run advances the packet one stage. It implements sim.Handler; end is
// the current virtual time (the completed reservation's end).
func (t *transit) Run(_, end sim.Time) {
	pkt := t.pkt
	switch t.stage {
	case stSrcPCI:
		if t.holdsSlot {
			t.ni.PostQueue.Release()
		}
		pkt.tSrc = end
		t.stage = stSrcFW
		t.ni.Firmware.EnqueueHandler(t.ni.fwSendService(pkt.Size)+pkt.FwSendExtra, t)

	case stSrcFW:
		if r := t.ni.rel; r != nil {
			// Sequence numbers are assigned here, at network entry:
			// the firmware resource is FIFO, so per-flow sequence
			// order always equals wire order.
			r.stamp(t, end)
		}
		t.stage = stOutLink
		t.ni.fabric.Out[pkt.Src].TransferHandler(pkt.Size, t)

	case stOutLink:
		pkt.tInject = end
		if F := t.ni.fabric.Faults; F != nil {
			v := F.JudgeOut(pkt.Src, end)
			if v.Drop {
				t.recycle()
				return
			}
			// For a broadcast template Csum is zero here, so the mask
			// accumulates and fanOut folds it into every copy.
			pkt.Csum ^= v.CorruptMask
		}
		t.stage = stSwitch
		t.hop = 0
		if t.dsts != nil {
			// Broadcast template: traverse the source's first (leaf)
			// switch once; fanOut replicates from there.
			t.ni.fabric.Switches[t.ni.fabric.Desc.FirstSwitch(pkt.Src)].RouteHandler(t)
			return
		}
		t.route = t.ni.fabric.Route(pkt.Src, pkt.Dst)
		t.enterSwitch()

	case stSwitch:
		if t.dsts != nil {
			t.fanOut()
			return
		}
		if int(t.hop)+1 < len(t.route) {
			// Multi-stage fabric: more switch hops before the
			// destination's in-link.
			t.hop++
			t.enterSwitch()
			return
		}
		t.stage = stInLink
		t.ni.fabric.In[pkt.Dst].TransferHandler(pkt.Size, t)

	case stInLink:
		pkt.tArrive = end
		if F := t.ni.fabric.Faults; F != nil {
			v := F.JudgeIn(pkt.Dst, end)
			if v.Drop {
				t.recycle()
				return
			}
			pkt.Csum ^= v.CorruptMask
			if v.Dup {
				t.dupArrival()
			}
			if v.Delay > 0 {
				t.stage = stFaultDelay
				t.ni.eng.AtHandler(end+v.Delay, end, t)
				return
			}
		}
		t.toDstFirmware()

	case stFaultDelay:
		t.toDstFirmware()

	case stDstFW:
		dst := t.ni.peers[pkt.Dst]
		if r := dst.rel; r != nil && !r.receive(pkt, end) {
			// Consumed (ack) or discarded (corrupt/dup/out-of-order)
			// by the receive firmware: never delivered, never seen by
			// the monitor.
			t.recycle()
			return
		}
		if pkt.FwHandler != nil {
			pkt.tDone = end
			dst.mon.record(dst, pkt)
			pkt.FwHandler(dst, pkt)
			t.recycle()
			return
		}
		t.stage = stDstPCI
		dst.PCI.EnqueueHandler(dst.pciService(pkt.Size), t)

	case stDstPCI:
		dst := t.ni.peers[pkt.Dst]
		pkt.tDone = end
		dst.mon.record(dst, pkt)
		if pkt.DeliverTo != nil {
			pkt.DeliverTo.Deliver(pkt)
		}
		t.recycle()
	}
}

// enterSwitch reserves the route's hop-indexed switch.
func (t *transit) enterSwitch() {
	t.ni.fabric.Switches[t.route[t.hop]].RouteHandler(t)
}

// toDstFirmware enqueues the arrived packet on the destination NI's
// firmware processor (factored out of Run so the fault-delay stage can
// share it).
func (t *transit) toDstFirmware() {
	pkt := t.pkt
	t.stage = stDstFW
	dst := t.ni.peers[pkt.Dst]
	dst.Firmware.EnqueueHandler(dst.fwRecvService(pkt.Size)+pkt.FwService, t)
}

// dupArrival models link-level duplication: a second copy of the packet
// crosses the in-link again and presents itself to the destination
// firmware. The copy shares the original's reliability header, so the
// receive gate suppresses whichever of the two arrives second.
func (t *transit) dupArrival() {
	pkt := t.pkt
	cp := t.ni.pool.getPacket()
	cp.Src, cp.Dst, cp.Size, cp.Kind = pkt.Src, pkt.Dst, pkt.Size, pkt.Kind
	cp.Payload = pkt.Payload
	cp.Meta, cp.Meta2 = pkt.Meta, pkt.Meta2
	cp.FwHandler, cp.FwService = pkt.FwHandler, pkt.FwService
	cp.DeliverTo = pkt.DeliverTo
	cp.Seq, cp.Ack, cp.Csum, cp.RelFlags = pkt.Seq, pkt.Ack, pkt.Csum, pkt.RelFlags
	cp.tPost, cp.tSrc, cp.tInject = pkt.tPost, pkt.tSrc, pkt.tInject
	td := t.ni.pool.getTransit()
	td.ni = t.ni
	td.pkt = cp
	td.stage = stInLink
	t.ni.fabric.In[pkt.Dst].TransferHandler(cp.Size, td)
}

// fanOut replicates a broadcast template onto every destination (the
// template's first-switch stage just completed). Each destination gets
// its own pooled Packet copy and transit; a copy whose route has more
// switch hops continues at hop 1, a same-leaf copy goes straight to the
// destination's in-link (on the crossbar, every copy). The template is
// recycled here, so the caller's dsts slice is never retained past the
// switch stage.
func (t *transit) fanOut() {
	tmpl := t.pkt
	for i, dst := range t.dsts {
		cp := t.ni.pool.getPacket()
		cp.Src, cp.Dst, cp.Size, cp.Kind = tmpl.Src, dst, tmpl.Size, tmpl.Kind
		cp.Payload = tmpl.Payload
		cp.Meta, cp.Meta2 = tmpl.Meta, tmpl.Meta2
		cp.DeliverTo = tmpl.DeliverTo
		cp.FwService = tmpl.FwService
		cp.tPost, cp.tSrc, cp.tInject = tmpl.tPost, tmpl.tSrc, tmpl.tInject
		if len(t.entries) > 0 {
			// Per-destination reliability header from the stamp-time
			// entry; tmpl.Csum carries corruption accumulated on the
			// shared prefix (zero otherwise).
			e := t.entries[i]
			cp.Seq, cp.Ack, cp.RelFlags = e.pkt.Seq, e.pkt.Ack, e.pkt.RelFlags
			cp.Csum = e.pkt.Csum ^ tmpl.Csum
		}
		td := t.ni.pool.getTransit()
		td.ni = t.ni
		td.pkt = cp
		if route := t.ni.fabric.Route(tmpl.Src, dst); len(route) > 1 {
			td.stage = stSwitch
			td.route = route
			td.hop = 1
			t.ni.fabric.Switches[route[1]].RouteHandler(td)
			continue
		}
		td.stage = stInLink
		t.ni.fabric.In[dst].TransferHandler(cp.Size, td)
	}
	t.recycle()
}

// pktPool holds one NI's packet and transit free lists. Like
// memory.BufPool, the lists are plain LIFO slices, so reuse order is
// deterministic run to run.
type pktPool struct {
	pktFree []*Packet
	trFree  []*transit
}

// getPacket returns a zeroed Packet from the free list, or a fresh one.
func (pl *pktPool) getPacket() *Packet {
	if n := len(pl.pktFree); n > 0 {
		p := pl.pktFree[n-1]
		pl.pktFree[n-1] = nil
		pl.pktFree = pl.pktFree[:n-1]
		return p
	}
	// Pool miss: allocate a chunk at once so a growing in-flight window
	// costs one allocation per 16 packets, not one per packet.
	chunk := make([]Packet, 16)
	for i := len(chunk) - 1; i > 0; i-- {
		pl.pktFree = append(pl.pktFree, &chunk[i])
	}
	return &chunk[0]
}

func (pl *pktPool) putPacket(p *Packet) {
	*p = Packet{} // drop payload/handler references before pooling
	pl.pktFree = append(pl.pktFree, p)
}

func (pl *pktPool) getTransit() *transit {
	if n := len(pl.trFree); n > 0 {
		t := pl.trFree[n-1]
		pl.trFree[n-1] = nil
		pl.trFree = pl.trFree[:n-1]
		return t
	}
	chunk := make([]transit, 16)
	for i := len(chunk) - 1; i > 0; i-- {
		pl.trFree = append(pl.trFree, &chunk[i])
	}
	return &chunk[0]
}

func (pl *pktPool) putTransit(t *transit) {
	ents := t.entries
	for i := range ents {
		ents[i] = nil // entries are owned by the rel layer until acked
	}
	*t = transit{}
	t.entries = ents[:0]
	pl.trFree = append(pl.trFree, t)
}

// getPacket draws from this NI's own pool.
func (ni *NI) getPacket() *Packet { return ni.pool.getPacket() }

// NewPacket hands callers a pooled Packet for a subsequent Post /
// PostFromEvent / FirmwareSend / PostBroadcast. The pipeline owns the
// packet once posted and recycles it after delivery, so callers must
// not retain or reuse it; fields are zeroed.
func (ni *NI) NewPacket() *Packet { return ni.getPacket() }

func (ni *NI) putPacket(p *Packet) { ni.pool.putPacket(p) }

// recycle returns a finished transit and its packet to the origin NI's
// pool.
func (t *transit) recycle() {
	pl := &t.ni.pool
	pl.putPacket(t.pkt)
	pl.putTransit(t)
}

// newTransit builds a transit for pkt originating at this NI.
func (ni *NI) newTransit(pkt *Packet) *transit {
	t := ni.pool.getTransit()
	t.ni = ni
	t.pkt = pkt
	return t
}
