package core

import (
	"testing"

	"genima/internal/sim"
)

// Two processors of node 0 wait on write notices from different
// sources. A deposit from one source must resume only that source's
// waiters, each waiter must return at the deposit that satisfies it,
// and the event count must equal what per-source counters produce.
func TestNoticeWaitsArePerSource(t *testing.T) {
	tc := newCluster(t, DW, 3, 2, 3)
	n := tc.sys.Node(0)
	done := map[string]sim.Time{}
	wait := func(name string, target []uint64) {
		tc.spawn(name, 0, func(p *sim.Proc, n *Node) {
			n.waitNotices(p, target)
			done[name] = p.Now()
		})
	}
	wait("a", []uint64{0, 2, 0}) // source 1 up to seq 2
	wait("b", []uint64{0, 0, 1}) // source 2 up to seq 1
	deposit := func(at sim.Time, src int, seq uint64) {
		tc.eng.AtHandler(at, at, evFn(func() {
			n.depositNotice(&interval{Src: src, Seq: seq})
		}))
	}
	deposit(10, 1, 1)
	deposit(20, 2, 1)
	deposit(30, 1, 2)
	// Between the first two deposits: a's wake re-parked it behind b,
	// which the source-1 deposit left where it was.
	tc.eng.AtHandler(15, 15, evFn(func() {
		ws := n.noticeWaits
		if len(ws) != 2 || ws[0].src != 2 || ws[1].src != 1 {
			t.Errorf("waiters at t=15: %+v, want [src 2, src 1]", ws)
		}
	}))
	tc.eng.RunUntilQuiet()

	if done["a"] != 30 || done["b"] != 20 {
		t.Errorf("a resumed at %d, b at %d; want 30 and 20", done["a"], done["b"])
	}
	// Per-source counters: 2 process starts, 3 deposits, 1 check, and
	// one wake per deposit for its own source's single waiter (a at 10
	// and 30, b at 20). A node-wide wake would add two more.
	if got, want := tc.eng.Events(), uint64(2+3+1+3); got != want {
		t.Errorf("Events = %d, want %d", got, want)
	}
	if len(n.noticeWaits) != 0 {
		t.Errorf("%d waiters left parked", len(n.noticeWaits))
	}
}

// evFn adapts a closure to sim.Handler for test events.
type evFn func()

func (f evFn) Run(_, _ sim.Time) { f() }
