package sim

// Test adapters from plain funcs to the Handler event form.

// fnHandler runs a plain func as an event.
type fnHandler func()

func (f fnHandler) Run(_, _ Time) { f() }

// spanHandler runs a func with the reservation bounds as an event.
type spanHandler func(start, end Time)

func (f spanHandler) Run(start, end Time) { f(start, end) }

// atFn schedules f at virtual time t.
func atFn(e *Engine, t Time, f func()) { e.AtHandler(t, t, fnHandler(f)) }

// afterFn schedules f d nanoseconds from now.
func afterFn(e *Engine, d Time, f func()) { atFn(e, e.Now()+d, f) }
