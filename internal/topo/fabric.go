package topo

// Multi-stage fabric descriptions. The paper's testbed is a single
// 8-way Myrinet crossbar; scaling the ladder past 32 processors needs
// switched fabrics. Two classic shapes are supported beside the
// crossbar, both built from switches of one parameterized radix:
//
//   - clos2: a 2-level Myrinet-style Clos. Each leaf switch dedicates
//     half its ports to hosts and half to uplinks; radix/2 spine
//     switches connect every leaf to every spine. Capacity is
//     radix²/2 hosts; routes are 1 hop (same leaf) or 3 hops
//     (leaf-spine-leaf).
//   - fattree: a 3-level k-ary fat tree (k = radix). Pods of k/2 edge
//     and k/2 aggregation switches, (k/2)² core switches, k/2 hosts
//     per edge switch. Capacity is k³/4 hosts; routes are 1, 3, or 5
//     hops.
//
// Routing is deterministic shortest-path, compiled into a flat table
// at Config build time: the spine (clos2) and the aggregation/core
// pair (fattree) are selected by arithmetic on the destination id, so
// every (src, dst) pair uses one fixed route in every run — the
// determinism the byte-identical-trace guarantee rests on. Each hop
// charges the per-hop Costs.SwitchFixed on that switch's own FIFO
// resource, which is what gives per-stage busy accounting.

import "fmt"

// TopoKind selects the fabric topology.
type TopoKind int

// Fabric topologies.
const (
	// TopoXbar is the paper's single crossbar switch (the default).
	TopoXbar TopoKind = iota
	// TopoClos2 is the 2-level leaf/spine Clos.
	TopoClos2
	// TopoFatTree is the 3-level k-ary fat tree.
	TopoFatTree
)

var topoNames = [...]string{"xbar8", "clos2", "fattree"}

// String names the topology (the -topo flag vocabulary).
func (t TopoKind) String() string {
	if t < 0 || int(t) >= len(topoNames) {
		return fmt.Sprintf("TopoKind(%d)", int(t))
	}
	return topoNames[t]
}

// ParseTopo parses a -topo flag value.
func ParseTopo(s string) (TopoKind, error) {
	switch s {
	case "xbar", "xbar8":
		return TopoXbar, nil
	case "clos2":
		return TopoClos2, nil
	case "fattree":
		return TopoFatTree, nil
	}
	return 0, errf("unknown topology %q (have xbar8, clos2, fattree)", s)
}

// FabricDesc is a compiled fabric: the switch inventory and the
// deterministic all-pairs routing table. Build it once per Config via
// Config.Fabric.
type FabricDesc struct {
	Kind TopoKind
	// NumSwitches is the total switch count across all stages.
	NumSwitches int
	// NumStages is the number of switch stages (1, 2, or 3).
	NumStages int
	// SwitchStage maps a switch id to its stage (0 = leaf/edge).
	SwitchStage []int8

	// Flat route storage. A route depends on its source host only
	// through the switch the host is attached to, so the table holds one
	// row per first-hop switch, not per host: route (src, dst) occupies
	// hops[(src/perSwitch*nodes+dst)*maxHops : ... + routeLen], switch
	// ids in traversal order.
	nodes     int
	perSwitch int // hosts per first-hop switch
	maxHops   int
	hops      []int16
	lens      []int8
}

// Route returns the switch ids a packet from src to dst traverses, in
// order. The slice aliases the compiled table; callers must not
// mutate it.
func (d *FabricDesc) Route(src, dst int) []int16 {
	i := src/d.perSwitch*d.nodes + dst
	off := i * d.maxHops
	return d.hops[off : off+int(d.lens[i])]
}

// MaxHops returns the fabric diameter in switch hops.
func (d *FabricDesc) MaxHops() int { return d.maxHops }

// FirstSwitch returns the leaf/edge switch a packet from src enters
// first (the fan-out point for NI broadcasts).
func (d *FabricDesc) FirstSwitch(src int) int16 {
	return d.hops[(src/d.perSwitch*d.nodes+src)*d.maxHops]
}

// Fabric compiles the configured topology into a switch inventory and
// routing table. The Config must have passed Validate.
func (c *Config) Fabric() *FabricDesc {
	switch c.Topo {
	case TopoClos2:
		return buildClos2(c.Nodes, c.SwitchRadix)
	case TopoFatTree:
		return buildFatTree(c.Nodes, c.SwitchRadix)
	default:
		return buildXbar(c.Nodes)
	}
}

// newDesc sizes a fabric whose hosts attach perSwitch to a first-hop
// switch (switch ids 0..firsts-1, host h on switch h/perSwitch).
func newDesc(kind TopoKind, nodes, perSwitch, nSwitches, nStages, maxHops int) *FabricDesc {
	firsts := (nodes + perSwitch - 1) / perSwitch
	return &FabricDesc{
		Kind:        kind,
		NumSwitches: nSwitches,
		NumStages:   nStages,
		SwitchStage: make([]int8, nSwitches),
		nodes:       nodes,
		perSwitch:   perSwitch,
		maxHops:     maxHops,
		hops:        make([]int16, firsts*nodes*maxHops),
		lens:        make([]int8, firsts*nodes),
	}
}

// setRoute records the route to dst from every host on first-hop
// switch sw.
func (d *FabricDesc) setRoute(sw, dst int, hops ...int16) {
	i := sw*d.nodes + dst
	d.lens[i] = int8(len(hops))
	copy(d.hops[i*d.maxHops:], hops)
}

func buildXbar(nodes int) *FabricDesc {
	d := newDesc(TopoXbar, nodes, nodes, 1, 1, 1)
	for t := 0; t < nodes; t++ {
		d.setRoute(0, t, 0)
	}
	return d
}

// buildClos2: leaves 0..nLeaves-1 (stage 0), spines after (stage 1).
// The spine for a cross-leaf route is dst%nSpines — destination-based
// and deterministic, spreading flows across spines.
func buildClos2(nodes, radix int) *FabricDesc {
	hpl := radix / 2 // hosts per leaf
	nLeaves := (nodes + hpl - 1) / hpl
	nSpines := radix / 2
	d := newDesc(TopoClos2, nodes, hpl, nLeaves+nSpines, 2, 3)
	for sw := nLeaves; sw < nLeaves+nSpines; sw++ {
		d.SwitchStage[sw] = 1
	}
	for ls := 0; ls < nLeaves; ls++ {
		for t := 0; t < nodes; t++ {
			lt := t / hpl
			if ls == lt {
				d.setRoute(ls, t, int16(ls))
				continue
			}
			d.setRoute(ls, t, int16(ls), int16(nLeaves+t%nSpines), int16(lt))
		}
	}
	return d
}

// buildFatTree: edges (stage 0), then aggregations (stage 1) grouped
// by pod, then cores (stage 2). Aggregation a = dst % p is chosen per
// destination; aggregation a of every pod connects to core group a, so
// the up- and down-path aggregations match and the core within the
// group is dst/h % p.
func buildFatTree(nodes, radix int) *FabricDesc {
	h := radix / 2 // hosts per edge switch
	p := radix / 2 // edge (and agg) switches per pod
	nEdges := (nodes + h - 1) / h
	nPods := (nEdges + p - 1) / p
	nAggs := nPods * p
	nCores := p * p
	d := newDesc(TopoFatTree, nodes, h, nEdges+nAggs+nCores, 3, 5)
	agg := func(pod, j int) int16 { return int16(nEdges + pod*p + j) }
	core := func(group, j int) int16 { return int16(nEdges + nAggs + group*p + j) }
	for sw := nEdges; sw < nEdges+nAggs; sw++ {
		d.SwitchStage[sw] = 1
	}
	for sw := nEdges + nAggs; sw < d.NumSwitches; sw++ {
		d.SwitchStage[sw] = 2
	}
	for es := 0; es < nEdges; es++ {
		podS := es / p
		for t := 0; t < nodes; t++ {
			et := t / h
			podT := et / p
			switch {
			case es == et:
				d.setRoute(es, t, int16(es))
			case podS == podT:
				d.setRoute(es, t, int16(es), agg(podS, t%p), int16(et))
			default:
				a := t % p
				d.setRoute(es, t,
					int16(es), agg(podS, a), core(a, t/h%p), agg(podT, a), int16(et))
			}
		}
	}
	return d
}

// FabricCapacity returns the maximum host count the topology supports
// at the given radix (0 = unlimited, for the idealized crossbar).
func FabricCapacity(kind TopoKind, radix int) int {
	switch kind {
	case TopoClos2:
		return radix * radix / 2
	case TopoFatTree:
		return radix * radix * radix / 4
	}
	return 0
}
