//go:build go1.23

package sim

import "iter"

// Proc is a simulated sequential agent backed by a coroutine
// (iter.Pull): the engine resumes it from an event and it hands control
// straight back when it blocks, a direct switch with no scheduler
// round trip. Everything that blocks a process (Sleep, Park, and the
// WaitQ, Flag, Counter, Gate, and Mailbox waits) must be called from the
// process's own body.
type Proc struct {
	eng  *Engine
	name string

	body   func(p *Proc)           // until the first dispatch starts it
	resume func() (struct{}, bool) // run the body until it blocks or ends
	stop   func()                  // unwind a blocked body (release)
	yieldf func(struct{}) bool     // hand control back to the engine

	done     bool // the body has returned, panicked, or been released
	released bool // the engine is unwinding the body (see releaseProcs)
}

// procReleased is the panic value that unwinds a released process's
// body; the process's own wrapper recovers it.
type procReleased struct{}

// Go spawns a new process running body. The process starts at the current
// virtual time (as a scheduled event, so Go may be called before Run).
func (e *Engine) Go(name string, body func(p *Proc)) *Proc {
	p := e.spawn(name, body)
	e.AtHandler(e.now, e.now, p)
	return p
}

// Serve spawns a server process that hands every item received on mb to
// handle, in FIFO order, forever. Unlike Go it schedules no start event:
// the process begins parked in mb's wait queue and first runs when an
// item arrives, so an idle server adds nothing to the event stream.
func Serve[T any](e *Engine, name string, mb *Mailbox[T], handle func(p *Proc, v T)) *Proc {
	p := e.spawn(name, func(p *Proc) {
		for {
			handle(p, mb.Recv(p))
		}
	})
	mb.q.enq(p)
	return p
}

// spawn builds a process whose body starts at its first dispatch. The
// coroutine is created then too, so a process that never runs (an idle
// protocol server) costs no goroutine.
func (e *Engine) spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, body: body}
	e.procs = append(e.procs, p)
	return p
}

// start creates the process's coroutine.
func (p *Proc) start() {
	body := p.body
	p.body = nil
	p.resume, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yieldf = yield
		defer func() {
			p.done = true
			if p.released {
				// The procReleased unwind is not a failure; anything
				// else a deferred call in the body raised still is.
				if r := recover(); r != nil && r != (procReleased{}) {
					panic(r)
				}
			}
		}()
		body(p)
	})
}

// releaseProcs unwinds every process that has not finished (parked
// forever, or cut off by Stop or a panic) so its coroutine, and all the
// simulation state its stack references, can be collected.
func (e *Engine) releaseProcs() {
	procs := e.procs
	e.procs = nil
	for _, p := range procs {
		if p.done {
			continue
		}
		p.released = true
		if p.stop != nil {
			p.stop()
		}
		p.done, p.body = true, nil
	}
}

// Name returns the process's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Run implements Handler: a scheduled wakeup dispatches the process.
// It exists so Sleep, Unpark, and Go can schedule dispatches through
// the typed event path with no closure allocation; it is not meant to
// be called directly.
func (p *Proc) Run(_, _ Time) { p.dispatch() }

// dispatch runs the process until it blocks again. It must run in
// engine (event) context. A panic in the body surfaces here, on the
// engine's goroutine.
func (p *Proc) dispatch() {
	if p.done {
		panic("sim: dispatch of finished process " + p.name)
	}
	if p.resume == nil {
		p.start()
	}
	p.resume()
}

// yield returns control to the engine loop until the next dispatch. It
// must run in process context.
func (p *Proc) yield() {
	if !p.yieldf(struct{}{}) {
		panic(procReleased{})
	}
}

// Sleep suspends the process for d nanoseconds of virtual time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	if d == 0 {
		return
	}
	t := p.eng.now + d
	p.eng.AtHandler(t, t, p)
	p.yield()
}

// SleepUntil suspends the process until virtual time t (no-op if t <= now).
func (p *Proc) SleepUntil(t Time) {
	if t <= p.eng.now {
		return
	}
	p.Sleep(t - p.eng.now)
}

// Park suspends the process indefinitely; something else must hold a
// reference and call Unpark (in engine/event or another process's context).
func (p *Proc) Park() { p.yield() }

// Unpark resumes a parked process at the current virtual time. It must be
// called from engine (event) context — e.g. inside an event callback — or
// via WaitQ/Mailbox which handle this correctly.
func (p *Proc) Unpark() {
	p.eng.AtHandler(p.eng.now, p.eng.now, p)
}
