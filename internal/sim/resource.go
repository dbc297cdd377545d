package sim

// Resource models a FIFO-served, single-server device: a DMA engine, an
// I/O bus, a network link, or a firmware processor. Work is admitted in
// arrival order; each job occupies the server for its service time.
//
// Because the engine is sequential, "arrival order" is simply the order
// of EnqueueHandler/Use calls, so a running-tail timestamp
// (busyUntil) is a complete FIFO model: a job arriving at time t starts
// at max(t, busyUntil).
//
// The resource keeps utilization and queueing statistics so callers can
// compute contention ratios (actual time / uncontended time).
type Resource struct {
	eng  *Engine
	name string

	busyUntil Time

	// Statistics.
	Jobs      uint64 // jobs served
	BusyTime  Time   // total service time
	WaitTime  Time   // total time jobs spent queued before service
	MaxQueued Time   // maximum backlog (busyUntil - now) seen at enqueue
}

// NewResource creates a named FIFO resource on the engine.
func NewResource(eng *Engine, name string) *Resource {
	return &Resource{eng: eng, name: name}
}

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// Backlog returns the current queued work (time until the server drains).
func (r *Resource) Backlog() Time {
	b := r.busyUntil - r.eng.now
	if b < 0 {
		return 0
	}
	return b
}

// reserve claims the next FIFO slot for a job with the given service
// time, updates the statistics, and returns the job's (start, end).
func (r *Resource) reserve(service Time) (start, end Time) {
	now := r.eng.now
	start = now
	if r.busyUntil > start {
		start = r.busyUntil
	}
	end = start + service
	r.busyUntil = end
	r.Jobs++
	r.BusyTime += service
	r.WaitTime += start - now
	if q := start - now; q > r.MaxQueued {
		r.MaxQueued = q
	}
	return start, end
}

// EnqueueHandler reserves the next FIFO slot for a job with the given
// service time, schedules the completion as h.Run(start, end), and
// returns the job's (start, end). It may be called from any context.
func (r *Resource) EnqueueHandler(service Time, h Handler) (start, end Time) {
	start, end = r.reserve(service)
	r.eng.AtHandler(end, start, h)
	return start, end
}

// Use runs a job on behalf of process p, blocking it until the job
// completes, and returns how long the job waited before service began.
func (r *Resource) Use(p *Proc, service Time) (waited Time) {
	start, end := r.reserve(service)
	waited = start - p.eng.now
	p.SleepUntil(end)
	return waited
}

// Gate is a counting-semaphore admission control used to model a bounded
// queue (e.g. the NI post queue): at most Depth jobs may be outstanding;
// producers block in Acquire when the queue is full and are released in
// FIFO order as Release is called.
type Gate struct {
	Depth int
	inUse int
	q     WaitQ

	Blocked     uint64 // number of Acquire calls that had to wait
	BlockedTime Time   // total time spent blocked in Acquire
}

// NewGate returns a gate admitting up to depth concurrent holders.
func NewGate(depth int) *Gate { return &Gate{Depth: depth} }

// Acquire blocks p until a slot is free, then claims it.
func (g *Gate) Acquire(p *Proc) {
	if g.inUse >= g.Depth {
		g.Blocked++
		t0 := p.Now()
		for g.inUse >= g.Depth {
			g.q.Wait(p)
		}
		g.BlockedTime += p.Now() - t0
	}
	g.inUse++
}

// TryAcquire claims a slot if one is free without blocking.
func (g *Gate) TryAcquire() bool {
	if g.inUse >= g.Depth {
		return false
	}
	g.inUse++
	return true
}

// Release frees a slot and wakes one blocked producer. May be called from
// any context.
func (g *Gate) Release() {
	if g.inUse <= 0 {
		panic("sim: Gate.Release without Acquire")
	}
	g.inUse--
	g.q.WakeOne()
}

// InUse returns the number of currently held slots.
func (g *Gate) InUse() int { return g.inUse }
