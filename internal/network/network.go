// Package network models a Myrinet-like system-area network: full-duplex
// point-to-point links connecting each host's network interface to a
// crossbar switch. Links and the switch are FIFO resources, so per
// source-destination pair delivery order is preserved — the only ordering
// guarantee VMMC (and the GeNIMA protocols) require.
package network

import (
	"fmt"

	"genima/internal/faults"
	"genima/internal/sim"
	"genima/internal/topo"
)

// Link is a unidirectional wire with a fixed per-packet propagation delay
// and a per-byte serialization time (160 MB/s in the paper's Myrinet).
type Link struct {
	res     *sim.Resource
	fixed   sim.Time
	perByte float64
}

// NewLink creates a link with the given fixed latency and ns/byte rate.
func NewLink(eng *sim.Engine, name string, fixed sim.Time, perByte float64) *Link {
	return &Link{res: sim.NewResource(eng, name), fixed: fixed, perByte: perByte}
}

// ServiceTime returns the uncontended time to carry n bytes.
func (l *Link) ServiceTime(n int) sim.Time {
	return l.fixed + sim.Time(float64(n)*l.perByte)
}

// TransferHandler enqueues an n-byte packet: h.Run fires when the last
// byte is on the far side.
func (l *Link) TransferHandler(n int, h sim.Handler) {
	l.res.EnqueueHandler(l.ServiceTime(n), h)
}

// Stats exposes the underlying resource for utilization reporting.
func (l *Link) Stats() *sim.Resource { return l.res }

// Switch is a crossbar that routes packets between links with a fixed
// per-packet routing delay. The paper's testbed is a single 8-way switch;
// we model its arbitration as one FIFO resource, which slightly
// pessimizes concurrent disjoint routes but preserves ordering.
type Switch struct {
	res   *sim.Resource
	fixed sim.Time
}

// NewSwitch creates the crossbar.
func NewSwitch(eng *sim.Engine, fixed sim.Time) *Switch {
	return &Switch{res: sim.NewResource(eng, "switch"), fixed: fixed}
}

// NewSwitchNamed creates one switch of a multi-stage fabric.
func NewSwitchNamed(eng *sim.Engine, name string, fixed sim.Time) *Switch {
	return &Switch{res: sim.NewResource(eng, name), fixed: fixed}
}

// RouteHandler enqueues a routing decision: h.Run fires when the head
// flit exits.
func (s *Switch) RouteHandler(h sim.Handler) {
	s.res.EnqueueHandler(s.fixed, h)
}

// ServiceTime returns the uncontended routing delay.
func (s *Switch) ServiceTime() sim.Time { return s.fixed }

// Stats exposes the underlying resource.
func (s *Switch) Stats() *sim.Resource { return s.res }

// Fabric wires N hosts to a switched fabric with an in- and out-link
// each. The fabric is one switch (the paper's 8-way crossbar) or a
// multi-stage topology (clos2/fattree) whose deterministic routes were
// compiled into Desc at Config build time.
type Fabric struct {
	// Switch is the single crossbar, kept as an alias of Switches[0]
	// for the one-switch call sites and utilization reporting.
	Switch *Switch
	// Switches holds every switch of the fabric, indexed by the ids
	// Desc's routes use.
	Switches []*Switch
	// Desc is the compiled topology: switch inventory + routing table.
	Desc *topo.FabricDesc
	Out  []*Link // host -> first switch
	In   []*Link // last switch -> host

	// Faults is the compiled fault plan, nil when fault injection is
	// disabled (the common case; nil keeps the fault-free path free of
	// any per-packet overhead). The NI pipeline consults it at the two
	// link-crossing boundaries.
	Faults *faults.Plan
}

// NewFabric builds the fabric for cfg.Nodes hosts on eng.
func NewFabric(eng *sim.Engine, cfg *topo.Config) *Fabric {
	desc := cfg.Fabric()
	f := &Fabric{
		Switches: make([]*Switch, desc.NumSwitches),
		Desc:     desc,
		Out:      make([]*Link, cfg.Nodes),
		In:       make([]*Link, cfg.Nodes),
	}
	for i := range f.Switches {
		name := "switch"
		if desc.NumSwitches > 1 {
			name = fmt.Sprintf("sw%d.s%d", i, desc.SwitchStage[i])
		}
		f.Switches[i] = NewSwitchNamed(eng, name, cfg.Costs.SwitchFixed)
	}
	f.Switch = f.Switches[0]
	if cfg.Faults.Enabled {
		f.Faults = faults.New(&cfg.Faults, cfg.Nodes)
	}
	for i := 0; i < cfg.Nodes; i++ {
		f.Out[i] = NewLink(eng, "link-out", cfg.Costs.LinkFixed, cfg.Costs.LinkPerByte)
		f.In[i] = NewLink(eng, "link-in", cfg.Costs.LinkFixed, cfg.Costs.LinkPerByte)
	}
	return f
}

// Route returns the switch ids a src->dst packet traverses, in order.
func (f *Fabric) Route(src, dst int) []int16 { return f.Desc.Route(src, dst) }

// StageBusy returns the total switch busy time accumulated per fabric
// stage (index 0 = leaf/edge stage).
func (f *Fabric) StageBusy() []sim.Time {
	busy := make([]sim.Time, f.Desc.NumStages)
	for i, sw := range f.Switches {
		busy[f.Desc.SwitchStage[i]] += sw.res.BusyTime
	}
	return busy
}

// UncontendedNet returns the worst-case no-queueing network time for n
// bytes between any host pair: out-link + diameter switch hops +
// in-link. On the crossbar this is the exact (and only) route time.
func (f *Fabric) UncontendedNet(n int) sim.Time {
	return f.Out[0].ServiceTime(n) +
		sim.Time(f.Desc.MaxHops())*f.Switch.ServiceTime() +
		f.In[0].ServiceTime(n)
}

// UncontendedNetRoute returns the no-queueing network time for n bytes
// on the specific src->dst route.
func (f *Fabric) UncontendedNetRoute(src, dst, n int) sim.Time {
	return f.Out[src].ServiceTime(n) +
		sim.Time(len(f.Route(src, dst)))*f.Switch.ServiceTime() +
		f.In[dst].ServiceTime(n)
}
