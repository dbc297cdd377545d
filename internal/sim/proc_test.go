package sim

import "testing"

// runRecover runs f and returns what it panicked with (nil if nothing).
func runRecover(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// A panic in a process body surfaces from Engine.Run on the caller's
// goroutine, where it can be recovered, and the run's other processes
// are released rather than left parked.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	e := NewEngine()
	parked := e.Go("parked", func(p *Proc) { p.Park() })
	e.Go("boom", func(p *Proc) {
		p.Sleep(5)
		panic("boom")
	})
	if r := runRecover(func() { e.RunUntilQuiet() }); r != "boom" {
		t.Fatalf("Run panicked with %v, want the body's panic value", r)
	}
	if !parked.done {
		t.Error("the parked process was not released after the panic")
	}
}

// A run that drains releases the processes still parked in it; one
// paused at a deadline keeps them, so it can be resumed.
func TestRunReleasesParkedProcs(t *testing.T) {
	e := NewEngine()
	var woke bool
	p := e.Go("sleeper", func(p *Proc) {
		p.Sleep(100)
		woke = true
		p.Park()
	})
	e.Run(50)
	if p.done {
		t.Fatal("a deadline pause released a live process")
	}
	e.RunUntilQuiet()
	if !woke || !p.done {
		t.Fatalf("woke=%v released=%v, want the drained run to release the parked process", woke, p.done)
	}
}

// Serve schedules nothing until an item arrives, then handles items in
// FIFO order at their arrival times.
func TestServeStartsParked(t *testing.T) {
	e := NewEngine()
	var mb Mailbox[int]
	var got []int
	var at []Time
	Serve(e, "server", &mb, func(p *Proc, v int) {
		got = append(got, v)
		at = append(at, p.Now())
		p.Sleep(10)
	})
	if e.events.len() != 0 || mb.Waiting() != 1 {
		t.Fatalf("Serve scheduled %d events, %d waiting; want 0 and a parked server", e.events.len(), mb.Waiting())
	}
	atFn(e, 5, func() { mb.Send(1); mb.Send(2) })
	e.RunUntilQuiet()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 || at[0] != 5 || at[1] != 15 {
		t.Fatalf("served %v at %v, want [1 2] at [5 15]", got, at)
	}
}
