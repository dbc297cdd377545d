package sim

import (
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
)

// Conservative parallel discrete-event execution (intra-run parallelism).
//
// A Cluster partitions one simulation into logical processes (LPs):
// shard LPs, each owning a contiguous block of simulated nodes, plus
// one LP for the network fabric. Each LP is a full Engine — its own
// typed 4-ary heap, clock, and Handler dispatch — and LPs exchange
// timestamped events only through Engine.Send, never by scheduling
// into each other's heaps directly. Sharding (NewCluster's shards
// argument, CLI -lpshards) is what makes big runs cheap: traffic
// between nodes of the same shard never crosses an LP boundary, and
// every per-round cost (horizon computation, barrier merge, key
// rewrite) scales with the number of shards, not the number of nodes.
//
// Synchronization is barrier-window conservative PDES. Every round
// each LP executes its events below a horizon — a proven lower bound
// on anything that can still arrive from another LP — in parallel,
// with no rollback. Lookaheads come from the topology's fixed costs:
// a shard LP cannot affect another LP sooner than nodeLA (the fixed
// cost of an outbound link) after its current event, the fabric LP
// not sooner than fabricLA (the fixed switch cost).
//
// # Batched windows
//
// In the wiring the runner builds, cross-LP traffic is bipartite:
// shard LPs send only to the fabric LP (packets entering the network)
// and the fabric LP sends only to shard LPs (packets leaving it). A
// caller that guarantees this calls MarkBipartite, and the cluster
// then computes one horizon per class from the earliest possible
// *input* each class can still receive — following the two-hop
// lookahead chains through the other class instead of stopping at the
// first hop:
//
//	causeFab  = min(fabPeek, minShardPeek+nodeLA, heldMin)
//	causeNode = min(minShardPeek, fabPeek+fabricLA, heldMin)
//	hShard    = min(causeFab + fabricLA, heldMin)
//	hFabric   = min(causeNode + nodeLA, heldMin)
//
// where heldMin bounds messages already generated but not yet
// deliverable (see below). Each horizon covers every chain of future
// events that could reach the class: a fabric event at fabPeek can
// reach a shard no sooner than fabPeek+fabricLA; a shard event can
// reach another shard no sooner than minShardPeek+nodeLA+fabricLA
// (it must cross the fabric); and symmetrically for the fabric,
// including its self-loop through a reacting shard
// (fabPeek+fabricLA+nodeLA). The result is that an LP executes
// multiple consecutive old-style global windows per barrier — e.g. a
// busy fabric with idle shards batches a full round trip — while the
// LP attaining the global minimum always executes at least one event,
// so progress is guaranteed. Without MarkBipartite the cluster falls
// back to the single global horizon H = min(peek+lookahead), under
// which every barrier commits completely.
//
// # Determinism
//
// The serial engine orders same-time events by a global scheduling
// sequence number; the parallel engine must reproduce that order
// exactly (byte-identical traces) for ANY (workers, shards) choice,
// without a shared counter on the hot path. The event `seq` word is
// reused as a structured key:
//
//	setup key        [1, 2^44)           shared counter, pre-Run only
//	resolved key     ord<<20 | act       ord >= 2^24, act in [0, 2^20)
//	provisional key  1<<63 | pos<<20 | act
//
// where `ord` is the global execution ordinal of the event's parent
// (the event that scheduled it), `act` counts the parent's scheduling
// actions (local and cross-LP through one shared counter, so child
// order equals call order equals serial order), and `pos` is the
// parent's ABSOLUTE position in its LP's execution log. Ordering by
// (time, parent ordinal, action index) is order-isomorphic to the
// serial (time, seq) order. Node-to-LP mapping cannot change any key:
// an intra-shard Send takes the same action index the outbox path
// would have, and position order within an LP is execution order.
//
// Per-class horizons make ordinal assignment subtler than in the
// global-window scheme: LP i may execute an event at t=80 in a round
// whose other class still holds an event at t=60, so ordinals can no
// longer be assigned to everything each barrier. Instead the barrier
// computes a commit floor
//
//	C = min(all post-round heap peeks, all undelivered outbox times)
//
// — no future execution anywhere can happen below C — and K-way
// merges only log entries with time < C by (time, key), resolving
// provisional keys on the fly (a parent always merges no later than
// its children: child time >= parent time, and within an LP the log
// is execution-ordered). Entries at or above C stay logged across
// rounds; outbox messages whose parent is uncommitted are *held* in
// the sender's outbox, and heldMin (the earliest held arrival) is
// folded into both horizons so no LP outruns a message that exists
// but cannot yet be delivered. Provisional keys still sitting in
// heaps, log tails, and outboxes are rewritten to resolved form as
// soon as their parent commits; the rewrite is pairwise
// order-preserving (ordinals are monotone in position), so heaps need
// no re-heapify. Deferred work (monitor commits) replays at the
// barrier in global ordinal order, committed prefix only. When
// nothing is executable but a backlog remains (every horizon capped
// by heldMin), a commit-only barrier pass raises C past the held
// message's parent and delivers it.
//
// # O(active) rounds
//
// The cluster maintains an indexed 4-ary min-heap over the shard LPs'
// cached peek timestamps (the fabric is a scalar alongside). Horizons
// read the heap root; the round's active set is collected by
// descending only into heap subtrees below the horizon. The heap is
// fixed up incrementally — only LPs that executed, received a
// delivery, or ran lone are touched — so a round in which few LPs
// participate costs O(active · log shards), not O(LPs). Round logs,
// ordinal arrays, merge cursors, outboxes, and the active list all
// reuse pooled backing storage: the steady-state barrier path is
// allocation-free.
//
// # Lone mode and failure
//
// When exactly one LP has pending events and no uncommitted backlog
// exists anywhere, the cluster drops into lone mode: that LP executes
// directly on the caller's goroutine, ordinals are assigned as events
// pop, children get resolved keys immediately, and deferred work runs
// inline — no logs, merges, or rewrites, and the worker pool is not
// woken. A cross-LP send ends lone mode after the current event.
// Quiescent phases (one shard computing, barrier stragglers) therefore
// run at near-serial speed regardless of cluster size.
//
// A panic inside an LP's window is caught on the executing worker,
// recorded (first one wins), and re-raised from Run on the caller's
// goroutine with the failing LP identified — the round WaitGroup is
// always released, so a crashing handler surfaces as a panic, not a
// deadlock.
const (
	actBits  = 20
	actMask  = uint64(1)<<actBits - 1
	posMask  = uint64(1)<<43 - 1 // pos field of a provisional key (bits 20..62)
	provBit  = uint64(1) << 63
	firstOrd = uint64(1) << 24
	maxSetup = firstOrd << actBits
)

// horizonInf is the "no constraint" horizon; far above any simulated
// timestamp, with headroom so adding a lookahead cannot overflow.
const horizonInf = Time(1) << 62

// logRec records one executed event: its timestamp and the key it was
// popped with (possibly still provisional).
type logRec struct {
	at  Time
	key uint64
}

// crossMsg is an event addressed to another LP, parked in the sender's
// outbox until a barrier commits its parent, resolves its key, and
// delivers it.
type crossMsg struct {
	to    *Engine
	at    Time
	start Time
	key   uint64
	h     Handler
}

// deferRec is a unit of work postponed to the barrier (see
// Engine.DeferFlush): pos is the absolute log position of the
// deferring event, so the barrier can replay committed defers in
// global ordinal order.
type deferRec struct {
	pos uint64
	at  Time
	h   Handler
}

// Cluster couples the LP engines of one parallel run. Construct with
// NewCluster, wire the simulation against Main() (per-LP engines are
// reached through Engine.LPNode/LPFabric), then call Run.
type Cluster struct {
	all    []*Engine // shard LPs 0..S-1, fabric at index S
	fabric *Engine
	nodeLP []int32 // node id -> shard LP index

	workers   int
	exec      bool // Run is active: keys are provisional/resolved, not setup
	bipartite bool // cross-LP sends only shard<->fabric (MarkBipartite)

	// Lone mode: the single non-empty LP currently executing, and
	// whether its current event has sent cross-LP (which ends the run).
	lone        *Engine
	loneCrossed bool

	setupSeq uint64 // shared pre-Run scheduling counter
	nextOrd  uint64 // next global execution ordinal

	peeks   peekHeap  // min-structure over shard LP peeks (not the fabric)
	logged  []*Engine // LPs with uncommitted log entries
	pending int       // total uncommitted log entries
	heldMin Time      // earliest held (undeliverable) outbox arrival

	round   []*Engine // LPs executing this round
	heads   []int     // merge cursors, one per logged LP
	dheads  []int     // defer-replay cursors
	touched []*Engine // LPs whose heaps changed since their last peek sync

	// Introspection (tests, bench): counters of executed round kinds.
	loneRounds  uint64 // lone-mode runs
	parRounds   uint64 // parallel (window+barrier) rounds
	commitOnly  uint64 // barrier-only passes (backlog flush, nothing ran)
	workerWakes uint64 // worker-pool channel signals sent
	maxBacklog  int    // largest uncommitted-entry backlog after a barrier

	// Progress watchdog: a livelocked round loop (horizons capped by a
	// held message whose parent never commits, e.g. under a buggy
	// lookahead) would otherwise spin commit-only passes forever. The
	// signature (nextOrd, pending, heldMin) changes on every productive
	// round — parallel rounds either commit entries (nextOrd advances)
	// or grow the backlog (pending), lone rounds advance nextOrd, and a
	// useful commit-only pass commits or delivers something — so wdLimit
	// consecutive rounds with an unchanged signature prove a livelock in
	// this deterministic system, and the cluster fails loudly with
	// per-LP diagnostics instead of hanging.
	wdLimit   int // rounds without progress before tripping; <=0 disables
	wdRounds  int
	wdOrd     uint64
	wdPending int
	wdHeld    Time

	stop bool // Stop was called: Run returns at the next round boundary

	workerCh []chan struct{}
	wg       sync.WaitGroup
	widx     int32

	panicMu    sync.Mutex
	panicVal   any
	panicLP    int
	panicStack []byte
}

// NewCluster builds shards+1 LP engines — nodes are block-partitioned
// onto `shards` shard LPs, plus one fabric LP — executed by up to
// `workers` OS threads. nodeLA and fabricLA are the lookahead bounds:
// the minimum virtual-time delta between an event on a shard (resp.
// fabric) LP and anything it schedules cross-LP. Callers derive them
// from the topology's fixed link and switch costs; they must be
// positive or conservative synchronization cannot make progress.
// shards is clamped to [1, nodes]; the event trace is byte-identical
// for every choice.
func NewCluster(nodes, shards, workers int, nodeLA, fabricLA Time) *Cluster {
	if nodes < 1 {
		panic("sim: NewCluster needs at least one node")
	}
	if nodeLA <= 0 || fabricLA <= 0 {
		panic("sim: NewCluster needs positive lookahead")
	}
	if shards < 1 {
		shards = 1
	}
	if shards > nodes {
		shards = nodes
	}
	if workers < 1 {
		workers = 1
	}
	cl := &Cluster{workers: workers, nextOrd: firstOrd, heldMin: horizonInf, wdLimit: defaultWatchdogRounds}
	cl.all = make([]*Engine, shards+1)
	for i := range cl.all {
		e := NewEngine()
		e.cl = cl
		e.lp = i
		e.la = nodeLA
		e.heapIdx = -1
		cl.all[i] = e
	}
	cl.fabric = cl.all[shards]
	cl.fabric.la = fabricLA
	per := (nodes + shards - 1) / shards
	cl.nodeLP = make([]int32, nodes)
	for i := range cl.nodeLP {
		cl.nodeLP[i] = int32(i / per)
	}
	cl.round = make([]*Engine, 0, shards+1)
	cl.heads = make([]int, 0, shards+1)
	cl.dheads = make([]int, 0, shards+1)
	cl.logged = make([]*Engine, 0, shards+1)
	cl.touched = make([]*Engine, 0, shards+1)
	cl.peeks.a = make([]*Engine, 0, shards)
	return cl
}

// defaultWatchdogRounds is the default progress-watchdog threshold.
// The check is O(1) per round and productive rounds always reset it,
// so the value only bounds how long a genuine livelock spins before
// the diagnostic fires; it is far above any legitimate streak.
const defaultWatchdogRounds = 100_000

// SetWatchdog sets the progress-watchdog threshold: the number of
// consecutive rounds without commit-floor/ordinal progress after which
// Run panics with per-LP diagnostics. rounds <= 0 disables the
// watchdog. The default is defaultWatchdogRounds.
func (cl *Cluster) SetWatchdog(rounds int) { cl.wdLimit = rounds }

// Stop makes Run return at the next round boundary (or at the end of
// the current lone run). It must be called from simulation context on
// the Run goroutine — an event handler, a deferred flush, or a barrier
// callback — never from another OS thread. The cluster's state stays
// consistent; the run simply does not finish.
func (cl *Cluster) Stop() { cl.stop = true }

// MarkBipartite asserts that during execution no shard LP ever sends
// to another shard LP: all cross-LP traffic passes through the fabric
// LP. The runner's wiring guarantees this (packets enter the network
// at TransferCross and leave it at RouteCross/fan-out, and NI timers
// are LP-local), and the cluster exploits it to batch multiple safe
// windows per barrier (see the package comment). Send panics if the
// assertion is violated.
func (cl *Cluster) MarkBipartite() { cl.bipartite = true }

// Shards returns the number of shard LPs (excluding the fabric LP).
func (cl *Cluster) Shards() int { return len(cl.all) - 1 }

// Main returns the LP of node 0, the engine a parallel run is wired
// against: construction code holds it and reaches sibling LPs through
// LPNode/LPFabric (which on a standalone engine return the engine
// itself, so serial construction paths are unchanged).
func (cl *Cluster) Main() *Engine { return cl.all[0] }

// Now returns the cluster's virtual time: the clock of the LP that has
// advanced furthest (the time of the last event executed anywhere).
func (cl *Cluster) Now() Time {
	var t Time
	for _, e := range cl.all {
		if e.now > t {
			t = e.now
		}
	}
	return t
}

// Events returns the total number of events executed, corrected by the
// per-LP count adjustments (see Engine.AdjustEventCount) so the total
// matches the serial engine's count event-for-event.
func (cl *Cluster) Events() uint64 {
	var n int64
	for _, e := range cl.all {
		n += int64(e.nEvents) + e.countAdj
	}
	return uint64(n)
}

// horizons returns the execution horizons for this round: hShard for
// every shard LP and hFab for the fabric LP. See the package comment
// for the derivation.
func (cl *Cluster) horizons() (hShard, hFab Time) {
	minShard, fabPeek := horizonInf, horizonInf
	if m := cl.peeks.min(); m != nil {
		minShard = m.peekKey
	}
	if cl.fabric.events.len() > 0 {
		fabPeek = cl.fabric.events.peek().at
	}
	nodeLA, fabLA := cl.all[0].la, cl.fabric.la
	if !cl.bipartite {
		// Single global horizon: every LP's first hop bounds everyone.
		h := horizonInf
		if minShard < horizonInf {
			h = minShard + nodeLA
		}
		if fabPeek < horizonInf && fabPeek+fabLA < h {
			h = fabPeek + fabLA
		}
		if cl.heldMin < h {
			h = cl.heldMin
		}
		return h, h
	}
	causeFab := fabPeek // earliest future fabric-LP execution
	if minShard < horizonInf && minShard+nodeLA < causeFab {
		causeFab = minShard + nodeLA
	}
	causeNode := minShard // earliest future shard-LP execution
	if fabPeek < horizonInf && fabPeek+fabLA < causeNode {
		causeNode = fabPeek + fabLA
	}
	if cl.heldMin < causeFab {
		causeFab = cl.heldMin
	}
	if cl.heldMin < causeNode {
		causeNode = cl.heldMin
	}
	hShard, hFab = horizonInf, horizonInf
	if causeFab < horizonInf {
		hShard = causeFab + fabLA
	}
	if causeNode < horizonInf {
		hFab = causeNode + nodeLA
	}
	if cl.heldMin < hShard {
		hShard = cl.heldMin
	}
	if cl.heldMin < hFab {
		hFab = cl.heldMin
	}
	return hShard, hFab
}

// Run executes the simulation to quiescence: rounds of barrier-window
// parallel execution, lone mode when a single LP has events and no
// backlog is pending, done when neither events nor backlog remain. It
// must be called exactly once, after setup.
func (cl *Cluster) Run() {
	defer cl.shutdown()
	cl.exec = true
	for _, e := range cl.all[:len(cl.all)-1] {
		cl.syncPeek(e)
	}
	for {
		if cl.stop {
			return
		}
		cl.watchdogCheck()
		fabNonEmpty := cl.fabric.events.len() > 0
		nonEmpty := len(cl.peeks.a)
		if fabNonEmpty {
			nonEmpty++
		}
		if nonEmpty == 0 && cl.pending == 0 {
			return
		}
		if nonEmpty == 1 && cl.pending == 0 {
			// Lone fast path: sound only when every other LP is
			// completely empty (runLone has no horizon) and no
			// uncommitted backlog exists, since it assigns ordinals
			// immediately as events pop.
			cl.loneRounds++
			e := cl.fabric
			if !fabNonEmpty {
				e = cl.peeks.a[0]
			}
			e.runLone()
			cl.syncPeek(e)
			cl.syncTouched()
			continue
		}
		hShard, hFab := cl.horizons()
		active := cl.round[:0]
		if m := cl.peeks.min(); m != nil && m.peekKey < hShard {
			active = cl.peeks.collect(0, hShard, active)
		}
		fabActive := fabNonEmpty && cl.fabric.events.peek().at < hFab
		if fabActive {
			active = append(active, cl.fabric)
		}
		cl.round = active
		// len(active) may be 0 here: a commit-only pass that raises
		// the commit floor and releases held messages.
		for _, e := range active {
			e.winH = hShard
		}
		if fabActive {
			cl.fabric.winH = hFab
		}
		if len(active) > 0 {
			cl.parRounds++
			cl.runRound()
		} else {
			cl.commitOnly++
		}
		cl.barrier()
	}
}

// watchdogCheck advances the progress watchdog by one round and trips
// it when the signature has not moved for wdLimit consecutive rounds.
func (cl *Cluster) watchdogCheck() {
	if cl.wdLimit <= 0 {
		return
	}
	if cl.nextOrd != cl.wdOrd || cl.pending != cl.wdPending || cl.heldMin != cl.wdHeld {
		cl.wdOrd, cl.wdPending, cl.wdHeld = cl.nextOrd, cl.pending, cl.heldMin
		cl.wdRounds = 0
		return
	}
	cl.wdRounds++
	if cl.wdRounds >= cl.wdLimit {
		cl.watchdogTrip()
	}
}

// watchdogTrip panics with a per-LP dump — clocks, heap peeks,
// uncommitted log shapes, and held outbox messages, everything needed
// to see which LP (and which held parent) is pinning the horizon. Run's
// deferred shutdown then releases the worker pool.
func (cl *Cluster) watchdogTrip() {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: watchdog: no progress in %d rounds (nextOrd=%d pending=%d heldMin=%d)\n",
		cl.wdRounds, cl.nextOrd, cl.pending, cl.heldMin)
	hShard, hFab := cl.horizons()
	fmt.Fprintf(&b, "  horizons: shard=%d fabric=%d\n", hShard, hFab)
	for i, e := range cl.all {
		name := fmt.Sprintf("shard LP %d", i)
		if e == cl.fabric {
			name = "fabric LP"
		}
		fmt.Fprintf(&b, "  %s: now=%d executed=%d heap=%d", name, e.now, e.nEvents, e.events.len())
		if e.events.len() > 0 {
			p := e.events.peek()
			fmt.Fprintf(&b, " peek(at=%d key=%#x)", p.at, p.seq)
		}
		fmt.Fprintf(&b, " logged=%d logStart=%d held=%d", len(e.roundLog), e.logStart, len(e.outbox))
		if len(e.outbox) > 0 {
			earliest := 0
			for j := 1; j < len(e.outbox); j++ {
				if e.outbox[j].at < e.outbox[earliest].at {
					earliest = j
				}
			}
			m := &e.outbox[earliest]
			fmt.Fprintf(&b, " heldEarliest(at=%d key=%#x)", m.at, m.key)
		}
		b.WriteByte('\n')
	}
	panic(b.String())
}

// shutdown ends a run, however it ended: it releases the worker pool
// and every LP's unfinished processes.
func (cl *Cluster) shutdown() {
	cl.exec = false
	for _, ch := range cl.workerCh {
		close(ch)
	}
	cl.workerCh = nil
	for _, e := range cl.all {
		e.releaseProcs()
	}
}

// runRound executes every active LP's events below its window horizon,
// fanning the LPs out over the worker pool. Workers are persistent
// goroutines spawned lazily; the calling goroutine participates as one
// of them, and single-LP rounds wake no workers at all. LP indices are
// claimed via an atomic cursor, so the assignment of LPs to threads is
// load-balanced and — because each LP runs single-threaded and the
// barrier is serial — has no effect on the simulation's result.
func (cl *Cluster) runRound() {
	nw := cl.workers
	if nw > len(cl.round) {
		nw = len(cl.round)
	}
	atomic.StoreInt32(&cl.widx, 0)
	for len(cl.workerCh) < nw-1 {
		ch := make(chan struct{}, 1)
		cl.workerCh = append(cl.workerCh, ch)
		go cl.workerLoop(ch)
	}
	cl.wg.Add(nw - 1)
	for i := 0; i < nw-1; i++ {
		cl.workerWakes++
		cl.workerCh[i] <- struct{}{}
	}
	cl.drain()
	cl.wg.Wait()
	if cl.panicVal != nil {
		// Surface a worker's panic from Run with the LP identified;
		// Run's deferred shutdown releases the pool and the processes.
		name := fmt.Sprintf("shard LP %d", cl.panicLP)
		if cl.panicLP == len(cl.all)-1 {
			name = "fabric LP"
		}
		panic(fmt.Sprintf("sim: %s panicked during a parallel round: %v\n%s", name, cl.panicVal, cl.panicStack))
	}
}

func (cl *Cluster) workerLoop(ch chan struct{}) {
	for range ch {
		cl.drain()
		cl.wg.Done()
	}
}

// drain claims unexecuted LPs of the current round until none remain.
func (cl *Cluster) drain() {
	for {
		i := int(atomic.AddInt32(&cl.widx, 1)) - 1
		if i >= len(cl.round) {
			return
		}
		cl.runLP(cl.round[i])
	}
}

// runLP runs one LP's window, converting a handler panic into a
// recorded failure (first one wins) so the round barrier is never
// deadlocked by a missing wg.Done.
func (cl *Cluster) runLP(e *Engine) {
	defer func() {
		if r := recover(); r != nil {
			cl.panicMu.Lock()
			if cl.panicVal == nil {
				cl.panicVal, cl.panicLP, cl.panicStack = r, e.lp, debug.Stack()
			}
			cl.panicMu.Unlock()
		}
	}()
	e.runWindow(e.winH)
}

// markTouched queues e for a peek-heap sync at the end of the current
// barrier (or lone run). Single-threaded: called only from barrier
// delivery and lone-mode sends.
func (cl *Cluster) markTouched(e *Engine) {
	if !e.touched {
		e.touched = true
		cl.touched = append(cl.touched, e)
	}
}

func (cl *Cluster) syncTouched() {
	for i, e := range cl.touched {
		e.touched = false
		cl.syncPeek(e)
		cl.touched[i] = nil
	}
	cl.touched = cl.touched[:0]
}

// barrier globally orders the committable prefix of the execution so
// far and releases its cross-LP effects. It runs single-threaded on
// the Run goroutine.
func (cl *Cluster) barrier() {
	// Round participants join the logged set and get their peek-heap
	// entries refreshed (they popped and pushed events).
	for _, e := range cl.round {
		if !e.inLogged && len(e.roundLog) > 0 {
			e.inLogged = true
			cl.logged = append(cl.logged, e)
		}
		cl.syncPeek(e)
	}
	lps := cl.logged
	if len(lps) == 0 {
		return
	}

	// 1. Commit floor C: nothing can ever execute below min(all heap
	// peeks, all undelivered outbox arrivals), so log entries under C
	// are in their final global order.
	C := horizonInf
	if m := cl.peeks.min(); m != nil {
		C = m.peekKey
	}
	if cl.fabric.events.len() > 0 && cl.fabric.events.peek().at < C {
		C = cl.fabric.events.peek().at
	}
	for _, e := range lps {
		for i := range e.outbox {
			if e.outbox[i].at < C {
				C = e.outbox[i].at
			}
		}
	}

	// 2. Assign global ordinals: K-way merge of the logs' sub-C
	// prefixes by (time, key), resolving provisional keys against
	// ordinals already assigned this pass (a parent always merges
	// before its children needing it; parents committed at earlier
	// barriers already rewrote their children's keys in step 4).
	cur := cl.heads[:0]
	for _, e := range lps {
		cur = append(cur, 0)
		if cap(e.ord) < len(e.roundLog) {
			e.ord = make([]uint64, len(e.roundLog))
		} else {
			e.ord = e.ord[:len(e.roundLog)]
		}
	}
	cl.heads = cur[:0]
	for {
		best := -1
		var bAt Time
		var bKey uint64
		for i, e := range lps {
			c := cur[i]
			if c >= len(e.roundLog) {
				continue
			}
			r := e.roundLog[c]
			if r.at >= C {
				continue
			}
			k := e.effKey(r.key)
			if best < 0 || r.at < bAt || (r.at == bAt && k < bKey) {
				best, bAt, bKey = i, r.at, k
			}
		}
		if best < 0 {
			break
		}
		lps[best].ord[cur[best]] = cl.nextOrd
		cl.nextOrd++
		cur[best]++
	}

	// 3. Replay committed deferred work in global ordinal order. Each
	// LP's defer list is sorted by absolute position (hence by
	// ordinal), so another K-way merge reproduces the serial
	// interleaving of side effects that must not run concurrently
	// (monitor commits). Defers of uncommitted events stay queued.
	dcur := cl.dheads[:0]
	for range lps {
		dcur = append(dcur, 0)
	}
	cl.dheads = dcur[:0]
	for {
		best := -1
		var bOrd uint64
		for i, e := range lps {
			c := dcur[i]
			if c >= len(e.defers) {
				continue
			}
			p := e.defers[c].pos
			if p >= e.logStart+uint64(cur[i]) {
				continue
			}
			if o := e.ord[p-e.logStart]; best < 0 || o < bOrd {
				best, bOrd = i, o
			}
		}
		if best < 0 {
			break
		}
		d := lps[best].defers[dcur[best]]
		dcur[best]++
		d.h.Run(d.at, d.at)
	}

	// 4. Rewrite provisional keys whose parent just committed — in
	// heaps, in uncommitted log tails (so later merges can order
	// them), and in outboxes, delivering every message that now has a
	// resolved key. The rewrite preserves every pairwise heap order
	// (ordinals are monotone in log position and above all previously
	// issued keys), so heap arrays are patched in place without
	// re-heapifying. Messages whose parent is still uncommitted are
	// held; the earliest held arrival caps the next horizons.
	cl.heldMin = horizonInf
	for li, e := range lps {
		lim := e.logStart + uint64(cur[li])
		for i := range e.events.a {
			if ev := &e.events.a[i]; ev.seq&provBit != 0 && ev.seq>>actBits&posMask < lim {
				ev.seq = e.effKey(ev.seq)
			}
		}
		for i := cur[li]; i < len(e.roundLog); i++ {
			if k := e.roundLog[i].key; k&provBit != 0 && k>>actBits&posMask < lim {
				e.roundLog[i].key = e.effKey(k)
			}
		}
		keep := 0
		for i := range e.outbox {
			m := &e.outbox[i]
			if m.key&provBit != 0 && m.key>>actBits&posMask >= lim {
				if m.at < cl.heldMin {
					cl.heldMin = m.at
				}
				e.outbox[keep] = *m
				keep++
				continue
			}
			m.to.events.push(event{at: m.at, seq: e.effKey(m.key), start: m.start, h: m.h})
			cl.markTouched(m.to)
		}
		for i := keep; i < len(e.outbox); i++ {
			e.outbox[i] = crossMsg{}
		}
		e.outbox = e.outbox[:keep]

		// 5. Compact the committed prefixes, keeping backing storage.
		if c := cur[li]; c > 0 {
			n := copy(e.roundLog, e.roundLog[c:])
			e.roundLog = e.roundLog[:n]
			e.logStart += uint64(c)
		}
		if c := dcur[li]; c > 0 {
			n := copy(e.defers, e.defers[c:])
			for i := n; i < len(e.defers); i++ {
				e.defers[i] = deferRec{}
			}
			e.defers = e.defers[:n]
		}
	}

	// 6. Drop fully committed LPs from the logged set and refresh the
	// peek heap for every LP that received a delivery.
	kept, pending := 0, 0
	for _, e := range lps {
		if len(e.roundLog) > 0 {
			lps[kept] = e
			kept++
			pending += len(e.roundLog)
		} else {
			e.inLogged = false
		}
	}
	for i := kept; i < len(lps); i++ {
		lps[i] = nil
	}
	cl.logged = lps[:kept]
	cl.pending = pending
	if pending > cl.maxBacklog {
		cl.maxBacklog = pending
	}
	cl.syncTouched()
}

// ClusterStats describes the execution shape of a finished (or
// running) cluster, for benchmarks and tests.
type ClusterStats struct {
	LoneRounds  uint64 // lone-mode fast-path runs
	ParRounds   uint64 // parallel window+barrier rounds
	CommitOnly  uint64 // barrier-only passes that flushed backlog
	WorkerWakes uint64 // worker-pool wakeup signals sent
	MaxBacklog  int    // peak uncommitted log entries across barriers
}

// Stats returns execution-shape counters: how often the cluster used
// each synchronization path and how deep the deferred-commit backlog
// got. Purely informational; reading it does not perturb the run.
func (cl *Cluster) Stats() ClusterStats {
	return ClusterStats{
		LoneRounds:  cl.loneRounds,
		ParRounds:   cl.parRounds,
		CommitOnly:  cl.commitOnly,
		WorkerWakes: cl.workerWakes,
		MaxBacklog:  cl.maxBacklog,
	}
}

// --- incremental min-structure over shard LP peeks -------------------

// peekHeap is an indexed 4-ary min-heap over shard LPs keyed by their
// cached peek timestamp (Engine.peekKey). The cache is refreshed only
// through Cluster.syncPeek, so the heap invariant always holds with
// respect to the cached keys even while several LPs' real heaps have
// changed; the cluster syncs every LP it touched before reading the
// heap again. The fabric LP is deliberately not tracked here — it is
// a single scalar peek in horizons().
type peekHeap struct {
	a []*Engine
}

func (h *peekHeap) min() *Engine {
	if len(h.a) == 0 {
		return nil
	}
	return h.a[0]
}

// syncPeek reconciles e's membership and cached key with the real
// state of its event heap. The fabric LP is ignored.
func (cl *Cluster) syncPeek(e *Engine) {
	if e == cl.fabric {
		return
	}
	h := &cl.peeks
	if e.events.len() == 0 {
		if e.heapIdx >= 0 {
			h.remove(int(e.heapIdx))
		}
		return
	}
	e.peekKey = e.events.peek().at
	if e.heapIdx < 0 {
		h.push(e)
	} else {
		h.fix(int(e.heapIdx))
	}
}

func (h *peekHeap) swap(i, j int) {
	h.a[i], h.a[j] = h.a[j], h.a[i]
	h.a[i].heapIdx = int32(i)
	h.a[j].heapIdx = int32(j)
}

func (h *peekHeap) up(i int) int {
	for i > 0 {
		p := (i - 1) / 4
		if h.a[i].peekKey >= h.a[p].peekKey {
			break
		}
		h.swap(i, p)
		i = p
	}
	return i
}

func (h *peekHeap) down(i int) {
	n := len(h.a)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		m := first
		last := first + 4
		if last > n {
			last = n
		}
		for j := first + 1; j < last; j++ {
			if h.a[j].peekKey < h.a[m].peekKey {
				m = j
			}
		}
		if h.a[m].peekKey >= h.a[i].peekKey {
			return
		}
		h.swap(i, m)
		i = m
	}
}

func (h *peekHeap) fix(i int) {
	if h.up(i) == i {
		h.down(i)
	}
}

func (h *peekHeap) push(e *Engine) {
	e.heapIdx = int32(len(h.a))
	h.a = append(h.a, e)
	h.up(len(h.a) - 1)
}

func (h *peekHeap) remove(i int) {
	n := len(h.a) - 1
	h.a[i].heapIdx = -1
	if i != n {
		h.a[i] = h.a[n]
		h.a[i].heapIdx = int32(i)
	}
	h.a[n] = nil
	h.a = h.a[:n]
	if i < n {
		h.fix(i)
	}
}

// collect appends every LP in the subtree rooted at i whose cached
// peek is below bound — O(result) plus the pruned frontier, not
// O(LPs).
func (h *peekHeap) collect(i int, bound Time, out []*Engine) []*Engine {
	if i >= len(h.a) || h.a[i].peekKey >= bound {
		return out
	}
	out = append(out, h.a[i])
	for c := 4*i + 1; c <= 4*i+4 && c < len(h.a); c++ {
		out = h.collect(c, bound, out)
	}
	return out
}
