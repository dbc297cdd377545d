package network

import (
	"testing"
	"testing/quick"

	"genima/internal/sim"
	"genima/internal/topo"
)

// Test drivers on the typed event forms: hfn adapts a func to
// sim.Handler, and send/broadcast walk a packet over the fabric hop by
// hop with TransferHandler/RouteHandler, the way the NI transit does.

type hfn func(start, end sim.Time)

func (f hfn) Run(start, end sim.Time) { f(start, end) }

func at(eng *sim.Engine, t sim.Time, f func()) {
	eng.AtHandler(t, t, hfn(func(_, _ sim.Time) { f() }))
}

// send moves an n-byte packet src->dst (out-link, every switch on the
// route, in-link); done gets the injection time (end of the out-link
// stage) and the arrival time.
func send(f *Fabric, src, dst, n int, done func(inject, arrive sim.Time)) {
	route := f.Route(src, dst)
	f.Out[src].TransferHandler(n, hfn(func(_, outEnd sim.Time) {
		hops(f, route, 0, dst, n, outEnd, done)
	}))
}

// hops continues a packet from route[i] through the in-link of dst.
func hops(f *Fabric, route []int16, i, dst, n int, inject sim.Time, done func(inject, arrive sim.Time)) {
	if i == len(route) {
		f.In[dst].TransferHandler(n, hfn(func(_, end sim.Time) { done(inject, end) }))
		return
	}
	f.Switches[route[i]].RouteHandler(hfn(func(_, _ sim.Time) {
		hops(f, route, i+1, dst, n, inject, done)
	}))
}

// broadcast moves one packet through src's out-link and first switch
// once, then replicates it down every destination's remaining route.
func broadcast(f *Fabric, src int, dsts []int, n int, done func(dst int, inject, arrive sim.Time)) {
	f.Out[src].TransferHandler(n, hfn(func(_, outEnd sim.Time) {
		f.Switches[f.Desc.FirstSwitch(src)].RouteHandler(hfn(func(_, _ sim.Time) {
			for _, dst := range dsts {
				d := dst
				hops(f, f.Route(src, d), 1, d, n, outEnd, func(inject, arrive sim.Time) {
					done(d, inject, arrive)
				})
			}
		}))
	}))
}

func TestLinkServiceTime(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLink(eng, "l", sim.Micro(1), 1.0) // 1 ns/byte
	if got := l.ServiceTime(1000); got != sim.Micro(1)+1000 {
		t.Errorf("service = %d", got)
	}
}

func TestLinkSerializesTransfers(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLink(eng, "l", 0, 1.0)
	var ends []sim.Time
	at(eng, 0, func() {
		l.TransferHandler(100, hfn(func(_, e sim.Time) { ends = append(ends, e) }))
		l.TransferHandler(100, hfn(func(_, e sim.Time) { ends = append(ends, e) }))
	})
	eng.RunUntilQuiet()
	if ends[0] != 100 || ends[1] != 200 {
		t.Errorf("ends = %v", ends)
	}
}

func TestFabricEndToEnd(t *testing.T) {
	eng := sim.NewEngine()
	cfg := topo.Default()
	f := NewFabric(eng, &cfg)
	var inject, arrive sim.Time
	at(eng, 0, func() {
		send(f, 0, 2, 4096, func(i, a sim.Time) { inject, arrive = i, a })
	})
	eng.RunUntilQuiet()
	if inject <= 0 || arrive <= inject {
		t.Fatalf("inject=%d arrive=%d", inject, arrive)
	}
	if want := f.UncontendedNet(4096); arrive != want {
		t.Errorf("arrive = %d, uncontended = %d", arrive, want)
	}
}

func TestUncontendedNetMonotoneInSize(t *testing.T) {
	eng := sim.NewEngine()
	cfg := topo.Default()
	f := NewFabric(eng, &cfg)
	prop := func(a, b uint16) bool {
		sa, sb := int(a)+1, int(b)+1
		if sa > sb {
			sa, sb = sb, sa
		}
		return f.UncontendedNet(sa) <= f.UncontendedNet(sb)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSwitchSharedAcrossPairs(t *testing.T) {
	// Two simultaneous sends on disjoint links still serialize at the
	// single crossbar (the model's stated pessimism).
	eng := sim.NewEngine()
	cfg := topo.Default()
	f := NewFabric(eng, &cfg)
	var arrivals []sim.Time
	at(eng, 0, func() {
		send(f, 0, 1, 64, func(_, a sim.Time) { arrivals = append(arrivals, a) })
		send(f, 2, 3, 64, func(_, a sim.Time) { arrivals = append(arrivals, a) })
	})
	eng.RunUntilQuiet()
	if len(arrivals) != 2 {
		t.Fatalf("%d arrivals", len(arrivals))
	}
	if arrivals[0] == arrivals[1] {
		t.Error("switch arbitration did not serialize the two routes")
	}
}

// Fault-hook edge cases: the fan-out and drop/delay injection points in
// the NI pipeline lean on these fabric properties.

// The 4 KB max-packet boundary: service times at MaxPacket must follow
// the exact per-byte formula (no truncation or rounding cliff at the
// boundary), since a full page transfer always rides a max-size packet.
func TestMaxPacketBoundaryServiceTimes(t *testing.T) {
	eng := sim.NewEngine()
	cfg := topo.Default()
	f := NewFabric(eng, &cfg)
	for _, n := range []int{cfg.MaxPacket - 1, cfg.MaxPacket} {
		want := cfg.Costs.LinkFixed + sim.Time(float64(n)*cfg.Costs.LinkPerByte)
		if got := f.Out[0].ServiceTime(n); got != want {
			t.Errorf("out-link service(%d) = %d, want %d", n, got, want)
		}
		if got := f.In[0].ServiceTime(n); got != want {
			t.Errorf("in-link service(%d) = %d, want %d", n, got, want)
		}
	}
	want := f.Out[0].ServiceTime(cfg.MaxPacket) + f.Switch.ServiceTime() +
		f.In[0].ServiceTime(cfg.MaxPacket)
	if got := f.UncontendedNet(cfg.MaxPacket); got != want {
		t.Errorf("UncontendedNet(MaxPacket) = %d, want %d", got, want)
	}
	if d := f.UncontendedNet(cfg.MaxPacket) - f.UncontendedNet(cfg.MaxPacket-1); d <= 0 {
		t.Errorf("last byte at the 4 KB boundary costs %d, want > 0", d)
	}
}

// The fault plan hangs off the fabric only when enabled, and with its
// configured seed: the NI pipeline nil-checks Fabric.Faults for its
// zero-overhead off switch.
func TestFabricFaultPlanConstruction(t *testing.T) {
	eng := sim.NewEngine()
	cfg := topo.Default()
	if f := NewFabric(eng, &cfg); f.Faults != nil {
		t.Fatal("fault plan built with faults disabled")
	}
	cfg.Faults = topo.FaultMix(0.5, 123)
	f := NewFabric(eng, &cfg)
	if f.Faults == nil {
		t.Fatal("no fault plan built with faults enabled")
	}
	saw := false
	for i := 0; i < 50 && !saw; i++ {
		v := f.Faults.JudgeIn(0, 0)
		saw = v.Drop || v.Dup || v.Delay > 0 || v.CorruptMask != 0
	}
	if !saw {
		t.Error("enabled 50% fault plan judged 50 packets clean")
	}
}

// Broadcast fan-out replicates onto every destination in-link
// independently: one slow (busy) in-link must not delay the copies
// bound for the other destinations — the property that lets a downed
// link stall only its own destination.
func TestBroadcastFanOutIndependentInLinks(t *testing.T) {
	eng := sim.NewEngine()
	cfg := topo.Default()
	f := NewFabric(eng, &cfg)
	// Pre-load node 2's in-link with a long transfer.
	at(eng, 0, func() {
		f.In[2].TransferHandler(cfg.MaxPacket, hfn(func(_, _ sim.Time) {}))
	})
	arrive := map[int]sim.Time{}
	at(eng, 0, func() {
		broadcast(f, 0, []int{1, 2, 3}, 64, func(dst int, _, a sim.Time) {
			arrive[dst] = a
		})
	})
	eng.RunUntilQuiet()
	if len(arrive) != 3 {
		t.Fatalf("%d arrivals, want 3", len(arrive))
	}
	if arrive[1] != arrive[3] {
		t.Errorf("idle destinations arrived apart: %d vs %d", arrive[1], arrive[3])
	}
	if arrive[2] <= arrive[1] {
		t.Errorf("busy in-link did not delay its own copy: dst2=%d dst1=%d", arrive[2], arrive[1])
	}
}

// Multi-stage fabric regression: routed sends must charge every switch
// on the compiled route, and per-stage busy accounting must see it.

func clos2Fabric(t *testing.T, nodes, radix int) (*sim.Engine, *Fabric, *topo.Config) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := topo.Default()
	cfg.Topo, cfg.SwitchRadix, cfg.Nodes = topo.TopoClos2, radix, nodes
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return eng, NewFabric(eng, &cfg), &cfg
}

func TestMultiStageSendMatchesRouteTime(t *testing.T) {
	eng, f, cfg := clos2Fabric(t, 8, 4) // 2 hosts/leaf: 0->5 is 3 hops
	if got := len(f.Route(0, 5)); got != 3 {
		t.Fatalf("route 0->5 has %d hops, want 3", got)
	}
	if got := len(f.Route(0, 1)); got != 1 {
		t.Fatalf("route 0->1 has %d hops, want 1", got)
	}
	var sameLeaf, crossLeaf sim.Time
	at(eng, 0, func() {
		send(f, 0, 1, 256, func(_, a sim.Time) { sameLeaf = a })
	})
	eng.RunUntilQuiet()
	at(eng, eng.Now(), func() {
		send(f, 0, 5, 256, func(_, a sim.Time) { crossLeaf = a })
	})
	start := eng.Now()
	eng.RunUntilQuiet()
	if want := f.UncontendedNetRoute(0, 1, 256); sameLeaf != want {
		t.Errorf("same-leaf arrive = %d, want %d", sameLeaf, want)
	}
	if want := start + f.UncontendedNetRoute(0, 5, 256); crossLeaf != want {
		t.Errorf("cross-leaf arrive = %d, want %d", crossLeaf, want)
	}
	if d := f.UncontendedNetRoute(0, 5, 256) - f.UncontendedNetRoute(0, 1, 256); d != 2*cfg.Costs.SwitchFixed {
		t.Errorf("cross-leaf route costs %d more, want 2 switch hops = %d", d, 2*cfg.Costs.SwitchFixed)
	}
}

func TestPerStageBusyAccounting(t *testing.T) {
	eng, f, cfg := clos2Fabric(t, 8, 4)
	done := 0
	at(eng, 0, func() {
		send(f, 0, 1, 64, func(_, _ sim.Time) { done++ }) // leaf-only
		send(f, 0, 5, 64, func(_, _ sim.Time) { done++ }) // leaf, spine, leaf
	})
	eng.RunUntilQuiet()
	if done != 2 {
		t.Fatalf("%d sends completed", done)
	}
	busy := f.StageBusy()
	if len(busy) != 2 {
		t.Fatalf("%d stages reported, want 2", len(busy))
	}
	sf := cfg.Costs.SwitchFixed
	if busy[0] != 3*sf {
		t.Errorf("leaf stage busy = %d, want %d (3 hops)", busy[0], 3*sf)
	}
	if busy[1] != sf {
		t.Errorf("spine stage busy = %d, want %d (1 hop)", busy[1], sf)
	}
}

func TestMultiStageBroadcastTraversesFirstSwitchOnce(t *testing.T) {
	eng, f, cfg := clos2Fabric(t, 8, 4)
	arrive := map[int]sim.Time{}
	at(eng, 0, func() {
		broadcast(f, 0, []int{1, 5}, 64, func(dst int, _, a sim.Time) { arrive[dst] = a })
	})
	eng.RunUntilQuiet()
	if len(arrive) != 2 {
		t.Fatalf("%d arrivals", len(arrive))
	}
	// The shared leaf hop is charged once: exactly 1 (shared leaf) +
	// 2 (spine+leaf for dst 5) hops of busy time in total.
	var total sim.Time
	for _, b := range f.StageBusy() {
		total += b
	}
	if want := 3 * cfg.Costs.SwitchFixed; total != want {
		t.Errorf("broadcast switch busy = %d, want %d", total, want)
	}
	if arrive[5] <= arrive[1] {
		t.Errorf("3-hop copy (%d) not after 1-hop copy (%d)", arrive[5], arrive[1])
	}
}
