package sim

// Tests for the typed (Handler) event path and for the queueing
// statistics the suite reports: Gate.Blocked/BlockedTime and
// Resource.MaxQueued.

import "testing"

// recordingHandler records every (start, end) pair it is dispatched with.
type recordingHandler struct {
	starts, ends []Time
}

func (h *recordingHandler) Run(start, end Time) {
	h.starts = append(h.starts, start)
	h.ends = append(h.ends, end)
}

func TestEnqueueHandlerPassesReservationBounds(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "bus")
	h := &recordingHandler{}
	atFn(e, 0, func() {
		r.EnqueueHandler(50, h) // idle: starts now
		r.EnqueueHandler(30, h) // queued behind the first
	})
	e.RunUntilQuiet()
	if len(h.starts) != 2 {
		t.Fatalf("dispatched %d times, want 2", len(h.starts))
	}
	if h.starts[0] != 0 || h.ends[0] != 50 {
		t.Errorf("first job = (%d,%d), want (0,50)", h.starts[0], h.ends[0])
	}
	if h.starts[1] != 50 || h.ends[1] != 80 {
		t.Errorf("second job = (%d,%d), want (50,80)", h.starts[1], h.ends[1])
	}
}

func TestAtHandlerPastPanics(t *testing.T) {
	e := NewEngine()
	atFn(e, 100, func() {
		defer func() {
			if recover() == nil {
				t.Error("AtHandler in the past did not panic")
			}
		}()
		e.AtHandler(50, 0, &recordingHandler{})
	})
	e.RunUntilQuiet()
}

// Handler events count toward Events() exactly like closure events.
func TestHandlerEventsCounted(t *testing.T) {
	e := NewEngine()
	h := &recordingHandler{}
	e.AtHandler(1, 0, h)
	e.AtHandler(2, 0, h)
	atFn(e, 3, func() {})
	e.RunUntilQuiet()
	if got := e.Events(); got != 3 {
		t.Fatalf("Events() = %d, want 3", got)
	}
}

func TestGateBlockedTimeAccounting(t *testing.T) {
	e := NewEngine()
	g := NewGate(1)
	e.Go("holder", func(p *Proc) {
		g.Acquire(p)
		p.Sleep(100)
		g.Release()
	})
	e.Go("waiter", func(p *Proc) {
		g.Acquire(p) // full until t=100
		g.Release()
	})
	e.RunUntilQuiet()
	if g.Blocked != 1 {
		t.Errorf("Blocked = %d, want 1", g.Blocked)
	}
	if g.BlockedTime != 100 {
		t.Errorf("BlockedTime = %d, want 100", g.BlockedTime)
	}
	if g.InUse() != 0 {
		t.Errorf("InUse = %d after all releases", g.InUse())
	}
}

func TestGateUncontendedAcquireNotCounted(t *testing.T) {
	e := NewEngine()
	g := NewGate(2)
	e.Go("p", func(p *Proc) {
		g.Acquire(p)
		g.Release()
	})
	e.RunUntilQuiet()
	if g.Blocked != 0 || g.BlockedTime != 0 {
		t.Errorf("uncontended acquire counted: Blocked=%d BlockedTime=%d", g.Blocked, g.BlockedTime)
	}
}

func TestResourceMaxQueuedTracksWorstBacklog(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "bus")
	atFn(e, 0, func() {
		r.reserve(100) // starts at 0, backlog 0
		r.reserve(100) // backlog 100
		r.reserve(100) // backlog 200
	})
	atFn(e, 250, func() {
		r.reserve(100) // backlog 50: must not lower the max
	})
	e.RunUntilQuiet()
	if r.MaxQueued != 200 {
		t.Errorf("MaxQueued = %d, want 200", r.MaxQueued)
	}
	if r.WaitTime != 0+100+200+50 {
		t.Errorf("WaitTime = %d, want 350", r.WaitTime)
	}
	if r.Jobs != 4 {
		t.Errorf("Jobs = %d, want 4", r.Jobs)
	}
}

// EnqueueHandler must feed the same statistics as Enqueue.
func TestEnqueueHandlerUpdatesStats(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "bus")
	h := &recordingHandler{}
	atFn(e, 0, func() {
		r.EnqueueHandler(100, h)
		r.EnqueueHandler(100, h)
	})
	e.RunUntilQuiet()
	if r.Jobs != 2 || r.BusyTime != 200 || r.WaitTime != 100 || r.MaxQueued != 100 {
		t.Errorf("stats = {Jobs:%d Busy:%d Wait:%d MaxQueued:%d}, want {2 200 100 100}",
			r.Jobs, r.BusyTime, r.WaitTime, r.MaxQueued)
	}
}
