// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock (int64 nanoseconds) by executing
// events in timestamp order. Two styles of simulated activity coexist:
//
//   - Events: typed Handler records scheduled with AtHandler (or through
//     a Resource), executed inline by the engine loop. Used for message
//     deliveries, DMA completions, etc.
//   - Processes: coroutines (Proc) that model sequential agents
//     (simulated processors, the per-node protocol process). A process
//     runs only when an event resumes it and hands control straight back
//     when it blocks, so exactly one activity runs at any instant and
//     simulations are deterministic and race-free without locks.
//
// Ties between events at the same timestamp are broken by scheduling
// order, which makes runs bit-reproducible. Every simulation runs on one
// Engine on one goroutine; parallelism is across runs (see the root
// package's suite runner), never inside one.
package sim

import (
	"fmt"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time = int64

// Common durations in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Micro returns d microseconds as a Time duration.
func Micro(d float64) Time { return Time(d * float64(Microsecond)) }

// Handler is the typed event form: a pre-built object whose Run method
// the engine invokes directly from the event queue, with no func() (and
// therefore no closure allocation) in between. start carries the
// reservation's begin time when the event was scheduled by a Resource
// (see Resource.EnqueueHandler); end is the event's own timestamp,
// equal to Engine.Now() at dispatch. Hot paths (the NI packet pipeline)
// implement Handler on pooled records, so scheduling allocates nothing.
type Handler interface {
	Run(start, end Time)
}

// event is one queue entry: the handler and the start word handed to
// its Run.
type event struct {
	at    Time
	seq   uint64
	start Time
	h     Handler
}

// eventBefore orders events by timestamp, then by scheduling order, so
// runs stay bit-reproducible.
func eventBefore(x, y *event) bool {
	return x.at < y.at || (x.at == y.at && x.seq < y.seq)
}

// eventQueue is a typed 4-ary min-heap over a flat []event. It replaces
// container/heap, which boxes every event through `any` (one allocation
// per push) and dispatches Less/Swap through an interface. The 4-ary
// shape halves the tree depth, so pops touch fewer cache lines than a
// binary heap on the deep queues the protocol simulations build.
// Vacated slots are zeroed on pop so executed handlers (and everything
// they reference) become garbage-collectable immediately.
type eventQueue struct {
	a []event
}

func (q *eventQueue) len() int     { return len(q.a) }
func (q *eventQueue) peek() *event { return &q.a[0] }

func (q *eventQueue) push(e event) {
	q.a = append(q.a, e)
	a := q.a
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !eventBefore(&a[i], &a[parent]) {
			break
		}
		a[i], a[parent] = a[parent], a[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	a := q.a
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = event{} // release the handler to the GC
	q.a = a[:n]
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		m := first
		last := first + 4
		if last > n {
			last = n
		}
		for j := first + 1; j < last; j++ {
			if eventBefore(&a[j], &a[m]) {
				m = j
			}
		}
		if !eventBefore(&a[m], &a[i]) {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	return top
}

// Engine is a discrete-event simulator: one event queue and one virtual
// clock, executed on the goroutine that calls Run. Every device,
// process and protocol agent of a simulated cluster schedules on the
// same Engine, so the global event order is the queue order. The zero
// value is not usable; construct with NewEngine.
type Engine struct {
	now    Time
	seq    uint64
	events eventQueue

	procs   []*Proc // every process spawned here, released when a run ends
	stopped bool

	nEvents uint64
}

// NewEngine returns an empty engine at virtual time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Events returns the number of events executed so far.
func (e *Engine) Events() uint64 { return e.nEvents }

// AtHandler schedules h.Run(start, t) at virtual time t. The handler
// value is stored in the event queue slot directly, so scheduling a
// pooled record costs zero heap allocations. Ties are broken by
// scheduling order. Scheduling in the past panics: it would make the
// clock non-monotonic.
func (e *Engine) AtHandler(t, start Time, h Handler) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.seq++
	e.events.push(event{at: t, seq: e.seq, start: start, h: h})
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the event queue is empty, Stop is called, or
// the optional deadline (>0) is reached. It returns the final virtual time.
// Unless the deadline ended it (the run can then be resumed), the run is
// over: every process still parked is released, and so is every process
// when an event or a process body panics out of Run.
func (e *Engine) Run(deadline Time) Time {
	paused := false
	defer func() {
		if !paused {
			e.releaseProcs()
		}
	}()
	for !e.stopped && e.events.len() > 0 {
		if deadline > 0 && e.events.peek().at > deadline {
			e.now = deadline
			paused = true
			break
		}
		ev := e.events.pop()
		e.now = ev.at
		e.nEvents++
		ev.h.Run(ev.start, ev.at)
	}
	return e.now
}

// RunUntilQuiet is Run with no deadline.
func (e *Engine) RunUntilQuiet() Time { return e.Run(0) }
