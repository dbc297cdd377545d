package sim

// Digest is an order-sensitive FNV-1a 64 accumulator used to fingerprint
// live simulator state for checkpoint verification (see internal/checkpoint).
// It is not a cryptographic hash: the goal is a cheap, deterministic
// summary that catches a restore diverging from the run it resumes —
// every field folded in is a pure function of the executed event prefix,
// so two runs that executed the same prefix produce the same digest.
type Digest struct {
	h uint64
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// NewDigest returns a fresh accumulator.
func NewDigest() *Digest { return &Digest{h: fnvOffset64} }

// U64 folds one 64-bit word into the digest, byte by byte.
func (d *Digest) U64(v uint64) {
	h := d.h
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	d.h = h
}

// I64 folds a signed word (virtual times, counters).
func (d *Digest) I64(v int64) { d.U64(uint64(v)) }

// Bool folds a flag.
func (d *Digest) Bool(v bool) {
	if v {
		d.U64(1)
	} else {
		d.U64(0)
	}
}

// Str folds a string length-prefixed, so concatenations cannot collide.
func (d *Digest) Str(s string) {
	d.U64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		d.h ^= uint64(s[i])
		d.h *= fnvPrime64
	}
}

// Bytes folds a byte slice length-prefixed.
func (d *Digest) Bytes(b []byte) {
	d.U64(uint64(len(b)))
	h := d.h
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	d.h = h
}

// Sum returns the accumulated fingerprint.
func (d *Digest) Sum() uint64 { return d.h }

// DigestInto folds this engine's live state: clock, counters, and the
// raw event heap. The heap array layout is itself deterministic — it is
// a pure function of the push/pop history, which two runs executing the
// same event prefix share — so hashing slots in array order is sound.
// Handler identities cannot be hashed portably; each slot contributes
// its timestamps and key, which is enough to catch any divergence in
// queue contents.
func (e *Engine) DigestInto(d *Digest) {
	d.I64(e.now)
	d.U64(e.seq)
	d.U64(e.nEvents)
	// Two zero words where the retired parallel engine folded its
	// event-count correction and commit floor, so digests stay stable.
	d.U64(0)
	d.U64(0)
	d.U64(uint64(e.events.len()))
	for i := range e.events.a {
		ev := &e.events.a[i]
		d.I64(ev.at)
		d.U64(ev.seq)
		d.I64(ev.start)
	}
}

// DigestInto folds a FIFO resource's server state: the running tail and
// the accumulated service statistics.
func (r *Resource) DigestInto(d *Digest) {
	d.I64(r.busyUntil)
	d.U64(r.Jobs)
	d.I64(r.BusyTime)
	d.I64(r.WaitTime)
	d.I64(r.MaxQueued)
}

// DigestInto folds a gate's admission state.
func (g *Gate) DigestInto(d *Digest) {
	d.U64(uint64(g.Depth))
	d.U64(uint64(g.inUse))
	d.U64(uint64(g.q.Len()))
	d.U64(g.Blocked)
	d.I64(g.BlockedTime)
}
