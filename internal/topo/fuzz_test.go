package topo

import "testing"

// FuzzConfigValidate: Validate must never panic, and whenever it
// accepts a config the fabric must compile without panicking, with the
// switch count Validate bounded, and every route must be non-empty,
// use only existing switches, and end at the destination's own switch
// (host h attaches to switch h/perSwitch).
// Validate sees the raw inputs; the fabric is built only for configs
// small enough that the all-pairs check stays cheap.
func FuzzConfigValidate(f *testing.F) {
	f.Add(4, int(TopoXbar), 8, false, 4, 4096)
	f.Add(8, int(TopoClos2), 4, false, 4, 4096)
	f.Add(21, int(TopoClos2), 8, true, 2, 4096)
	f.Add(16, int(TopoFatTree), 4, true, 3, 4096)
	f.Add(10, int(TopoFatTree), 4, false, 4, 4096)
	f.Add(512, int(TopoFatTree), 16, true, 4, 4096)
	f.Add(9, int(TopoClos2), 4, false, 4, 4096)   // over clos2 capacity
	f.Add(8, int(TopoFatTree), 5, false, 4, 4096) // odd radix
	f.Add(600, int(TopoClos2), 64, true, 4, 4096) // vector larger than a packet
	f.Add(4, 7, 8, false, 4, 4096)                // unknown topology
	f.Add(0, int(TopoXbar), 8, false, 4, 4096)    // no nodes
	f.Add(4, int(TopoXbar), 8, true, 1, 4096)     // arity below 2
	f.Add(4, int(TopoXbar), 8, false, 4, 2)       // packet below a word
	f.Fuzz(func(t *testing.T, nodes, kind, radix int, collectives bool, arity, maxPacket int) {
		cfg := Default()
		cfg.Nodes = nodes
		cfg.Topo = TopoKind(kind)
		cfg.SwitchRadix = radix
		cfg.Collectives = collectives
		cfg.CollectiveArity = arity
		cfg.MaxPacket = maxPacket
		if cfg.Validate() != nil {
			return
		}
		if nodes > 600 || radix > 64 {
			return
		}
		d := cfg.Fabric()
		if want := fabricSwitches(cfg.Topo, nodes, radix); d.NumSwitches != want {
			t.Fatalf("%v radix %d, %d nodes: built %d switches, Validate counted %d",
				cfg.Topo, radix, nodes, d.NumSwitches, want)
		}
		for src := 0; src < nodes; src++ {
			for dst := 0; dst < nodes; dst++ {
				r := d.Route(src, dst)
				if len(r) == 0 {
					t.Fatalf("%v radix %d, %d nodes: route %d->%d is empty", cfg.Topo, radix, nodes, src, dst)
				}
				for i, sw := range r {
					if sw < 0 || int(sw) >= d.NumSwitches {
						t.Fatalf("%v radix %d, %d nodes: route %d->%d hop %d: switch %d of %d",
							cfg.Topo, radix, nodes, src, dst, i, sw, d.NumSwitches)
					}
				}
				if last := int(r[len(r)-1]); last != dst/d.perSwitch {
					t.Fatalf("%v radix %d, %d nodes: route %d->%d ends at switch %d, want %d",
						cfg.Topo, radix, nodes, src, dst, last, dst/d.perSwitch)
				}
			}
		}
	})
}
