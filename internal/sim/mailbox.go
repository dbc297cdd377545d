package sim

// Mailbox is an unbounded FIFO message queue between simulated activities.
// Send may be called from any context; Recv must be called from process
// context and blocks until a message is available.
type Mailbox[T any] struct {
	items []T // queued items are items[head:]
	head  int
	q     WaitQ
}

// Send enqueues an item and wakes one waiting receiver.
func (m *Mailbox[T]) Send(v T) {
	m.items = append(m.items, v)
	m.q.WakeOne()
}

// Recv dequeues the oldest item, blocking p until one is available.
func (m *Mailbox[T]) Recv(p *Proc) T {
	for m.head == len(m.items) {
		m.q.Wait(p)
	}
	return m.pop()
}

// pop removes the head in O(1); the backing array is rewound once the
// queue drains, so a steady send/recv cycle allocates nothing and a
// deep queue (a barrier master's arrivals) costs no compaction copies.
func (m *Mailbox[T]) pop() T {
	v := m.items[m.head]
	var zero T
	m.items[m.head] = zero // release references held by the vacated slot
	m.head++
	if m.head == len(m.items) {
		m.items, m.head = m.items[:0], 0
	}
	return v
}

// Len returns the number of queued items.
func (m *Mailbox[T]) Len() int { return len(m.items) - m.head }

// Queued returns the queued items, oldest first. The slice aliases the
// mailbox's storage: read it before the next Send or Recv.
func (m *Mailbox[T]) Queued() []T { return m.items[m.head:] }

// Waiting returns the number of receivers parked in Recv.
func (m *Mailbox[T]) Waiting() int { return m.q.Len() }
