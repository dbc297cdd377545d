package nic

import (
	"fmt"
	"sort"
	"strings"

	"genima/internal/sim"
)

// StageStats accumulates actual and uncontended time per pipeline stage
// for one message-size class.
type StageStats struct {
	Packets     uint64
	Bytes       uint64
	Actual      [NumStages]sim.Time
	Uncontended [NumStages]sim.Time
}

// Ratio returns actual/uncontended for a stage (1.0 when no traffic).
func (s *StageStats) Ratio(st Stage) float64 {
	if s.Uncontended[st] == 0 {
		return 1
	}
	return float64(s.Actual[st]) / float64(s.Uncontended[st])
}

// KindStats counts traffic for one protocol message kind.
type KindStats struct {
	Packets uint64
	Bytes   uint64
}

// TraceEvent is one delivered packet, as seen by the firmware monitor.
type TraceEvent struct {
	Time      sim.Time // delivery completion
	Src, Dst  int
	Size      int
	Kind      string
	Firmware  bool                // serviced in destination NI firmware
	StageTime [NumStages]sim.Time // per-stage elapsed (incl. queueing)
}

// Monitor is the NI firmware performance monitor (the paper's [36]): it
// gathers packet-level data at the firmware level for the whole system.
type Monitor struct {
	ByClass [numClasses]StageStats
	// ByKind breaks traffic down by protocol message kind ("page-req",
	// "diff", "notice", "ni-lock-acq", ...), the view §4 of the paper
	// uses to identify control messages stuck behind data.
	ByKind map[string]*KindStats
	// Tracer, when set before the run, receives every delivered packet
	// (the monitor's packet-level event stream).
	Tracer func(TraceEvent)
}

// record commits a delivered packet's statistics and trace event; the
// pipeline calls it on the delivering NI.
func (m *Monitor) record(ni *NI, pkt *Packet) {
	cfg, fab := ni.cfg, ni.fabric
	st := &m.ByClass[ClassOf(pkt.Size)]
	st.Packets++
	st.Bytes += uint64(pkt.Size)

	if m.ByKind == nil {
		m.ByKind = map[string]*KindStats{}
	}
	ks := m.ByKind[pkt.Kind]
	if ks == nil {
		ks = &KindStats{}
		m.ByKind[pkt.Kind] = ks
	}
	ks.Packets++
	ks.Bytes += uint64(pkt.Size)

	st.Actual[StageSource] += pkt.tSrc - pkt.tPost
	st.Actual[StageLANai] += pkt.tInject - pkt.tSrc
	st.Actual[StageNet] += pkt.tArrive - pkt.tSrc
	st.Actual[StageDest] += pkt.tDone - pkt.tArrive

	c := &cfg.Costs
	pci := c.PCIFixed + sim.Time(float64(pkt.Size)*c.PCIPerByte)
	fwSend := c.NIPerPacket/sim.Time(cfg.SendPipelining) + sim.Time(float64(pkt.Size)*c.NIPerByte)
	fwRecv := c.NIPerPacket + sim.Time(float64(pkt.Size)*c.NIPerByte) + pkt.FwService
	if cfg.Faults.Enabled {
		// Reliable delivery charges checksum/seq bookkeeping on both
		// firmware passes; fold it into the uncontended baseline so
		// contention ratios stay comparable with faults on.
		rel := c.NIRelFixed + sim.Time(float64(pkt.Size)*c.NICsumPerByte)
		fwSend += rel
		fwRecv += rel
	}
	outLink := fab.Out[0].ServiceTime(pkt.Size)

	uSrc := pci
	if pkt.noSrcDMA {
		uSrc = 0
	}
	uDest := fwRecv
	if pkt.FwHandler == nil {
		uDest += pci
	}
	st.Uncontended[StageSource] += uSrc
	st.Uncontended[StageLANai] += fwSend + outLink
	st.Uncontended[StageNet] += fwSend + fab.UncontendedNet(pkt.Size)
	st.Uncontended[StageDest] += uDest

	if m.Tracer != nil {
		m.Tracer(TraceEvent{
			Time: pkt.tDone, Src: pkt.Src, Dst: pkt.Dst,
			Size: pkt.Size, Kind: pkt.Kind, Firmware: pkt.FwHandler != nil,
			StageTime: [NumStages]sim.Time{
				pkt.tSrc - pkt.tPost, pkt.tInject - pkt.tSrc,
				pkt.tArrive - pkt.tSrc, pkt.tDone - pkt.tArrive,
			},
		})
	}
}

// Ratios returns the four contention ratios for a class, in stage order
// (the rows of Tables 3 and 4 in the paper).
func (m *Monitor) Ratios(c Class) [NumStages]float64 {
	var r [NumStages]float64
	for s := Stage(0); s < NumStages; s++ {
		r[s] = m.ByClass[c].Ratio(s)
	}
	return r
}

// Packets returns the packet count in a class.
func (m *Monitor) Packets(c Class) uint64 { return m.ByClass[c].Packets }

// TotalPackets returns the packet count across classes.
func (m *Monitor) TotalPackets() uint64 {
	return m.ByClass[Small].Packets + m.ByClass[Large].Packets
}

// TotalBytes returns total bytes moved across classes.
func (m *Monitor) TotalBytes() uint64 {
	return m.ByClass[Small].Bytes + m.ByClass[Large].Bytes
}

// String renders the monitor in a compact diagnostic form.
func (m *Monitor) String() string {
	var sb strings.Builder
	for c := Class(0); c < numClasses; c++ {
		st := &m.ByClass[c]
		fmt.Fprintf(&sb, "%s: %d pkts, %d bytes;", c, st.Packets, st.Bytes)
		for s := Stage(0); s < NumStages; s++ {
			fmt.Fprintf(&sb, " %s=%.1f", s, st.Ratio(s))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TopKinds returns up to n message kinds by packet count, descending.
func (m *Monitor) TopKinds(n int) []struct {
	Kind string
	KindStats
} {
	type row struct {
		Kind string
		KindStats
	}
	var rows []row
	for k, v := range m.ByKind {
		rows = append(rows, row{k, *v})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Packets != rows[j].Packets {
			return rows[i].Packets > rows[j].Packets
		}
		return rows[i].Kind < rows[j].Kind
	})
	if len(rows) > n {
		rows = rows[:n]
	}
	out := make([]struct {
		Kind string
		KindStats
	}, len(rows))
	for i, r := range rows {
		out[i] = struct {
			Kind string
			KindStats
		}{r.Kind, r.KindStats}
	}
	return out
}
