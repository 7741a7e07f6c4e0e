package tenant

import "hpbd/internal/sim"

// Sched is the server's work queue. In fair mode — a tenancy server's
// quantum issue — it is a deterministic weighted fair queue: start-time
// fair queueing with byte-weighted virtual finish times. A push is tagged
//
//	start  = max(vtime, flow.lastFinish)
//	finish = start + bytes*costScale/weight
//
// and pops take the smallest finish tag (ties by push sequence, so
// equal tags keep arrival order). vtime advances to the start tag of
// each popped item, which keeps a newly-busy flow from replaying
// history it was idle for. 128K requests therefore pay 32x what 4K
// requests pay, and a tenant's share of issue bandwidth converges to
// its weight share — the property the isolation suite asserts.
//
// A FIFO mode keeps the identical plumbing — including the sched-wait
// measurement — but orders strictly by sequence. It is the isolation
// experiments' control arm and the untenanted server's queue: Push never
// blocks and Pop wakes one parked worker per item in arrival order, as
// an unbounded sim.Chan would. All state is integer arithmetic; no
// clock, no randomness, no map iteration.
type Sched[T any] struct {
	wq     *sim.WaitQueue
	fifo   bool
	flows  map[string]*schedFlow // keyed access only; snapshot walks ids
	ids    []string              // registration order
	heap   []entry[T]            // min-heap on (key, seq)
	vtime  uint64
	seq    uint64
	closed bool
}

// costScale converts bytes/weight into integer virtual time with
// enough resolution that weight differences survive the division.
const costScale = 1024

// entry is one queued item.
type entry[T any] struct {
	key    uint64 // virtual finish tag (FIFO: sequence)
	start  uint64 // virtual start tag
	seq    uint64
	bytes  int
	pushAt sim.Time
	flow   *schedFlow
	val    T
}

// schedFlow is one tenant's scheduler state.
type schedFlow struct {
	id         string
	weight     int
	lastFinish uint64
	queued     int
	reqs       int64 // issued (popped) requests
	bytes      int64 // issued bytes
}

// NewSched creates a scheduler; fifo selects strict arrival order.
func NewSched[T any](env *sim.Env, fifo bool) *Sched[T] {
	return &Sched[T]{
		wq:    sim.NewWaitQueue(env),
		fifo:  fifo,
		flows: make(map[string]*schedFlow),
	}
}

// AddFlow registers a tenant with its weight. Flows must be registered
// before the first Push for their ID.
func (s *Sched[T]) AddFlow(id string, weight int) {
	if weight < 1 {
		weight = 1
	}
	if _, ok := s.flows[id]; ok {
		return
	}
	s.flows[id] = &schedFlow{id: id, weight: weight}
	s.ids = append(s.ids, id)
}

// Push enqueues one item for tenant id, paying bytes of virtual cost,
// and wakes a parked worker. Unregistered IDs run at weight 1.
func (s *Sched[T]) Push(id string, bytes int, now sim.Time, v T) {
	f := s.flows[id]
	if f == nil {
		s.AddFlow(id, 1)
		f = s.flows[id]
	}
	s.seq++
	e := entry[T]{seq: s.seq, bytes: bytes, pushAt: now, flow: f, val: v}
	if s.fifo {
		e.key = s.seq
	} else {
		e.start = s.vtime
		if f.lastFinish > e.start {
			e.start = f.lastFinish
		}
		cost := uint64(bytes) * costScale / uint64(f.weight)
		if cost == 0 {
			cost = 1
		}
		e.key = e.start + cost
		f.lastFinish = e.key
	}
	f.queued++
	s.heapPush(e)
	s.wq.WakeOne()
}

// Pop dequeues the item with the smallest finish tag, blocking the
// worker while the queue is empty. It returns the item, its push time
// (for the sched-wait histogram) and false once the scheduler is
// closed and drained.
func (s *Sched[T]) Pop(p *sim.Proc) (T, sim.Time, bool) {
	for {
		if len(s.heap) > 0 {
			e := s.heapPop()
			if !s.fifo && e.start > s.vtime {
				s.vtime = e.start
			}
			e.flow.queued--
			e.flow.reqs++
			e.flow.bytes += int64(e.bytes)
			return e.val, e.pushAt, true
		}
		if s.closed {
			var zero T
			return zero, 0, false
		}
		s.wq.Wait(p)
	}
}

// Close wakes every parked worker; Pops drain the queue then return
// false.
func (s *Sched[T]) Close() {
	s.closed = true
	s.wq.WakeAll()
}

// Backlog returns the queued item count for id.
func (s *Sched[T]) Backlog(id string) int {
	if f := s.flows[id]; f != nil {
		return f.queued
	}
	return 0
}

// FlowStat is one tenant's issue accounting.
type FlowStat struct {
	ID     string
	Weight int
	Reqs   int64 // requests issued to workers
	Bytes  int64 // bytes issued to workers
	Queued int   // currently backlogged
}

// FlowStats snapshots every flow in registration order.
func (s *Sched[T]) FlowStats() []FlowStat {
	out := make([]FlowStat, 0, len(s.ids))
	for _, id := range s.ids {
		f := s.flows[id]
		out = append(out, FlowStat{ID: f.id, Weight: f.weight, Reqs: f.reqs, Bytes: f.bytes, Queued: f.queued})
	}
	return out
}

// heapPush/heapPop maintain the min-heap on (key, seq) without the
// interface boxing of container/heap.
func (s *Sched[T]) heapPush(e entry[T]) {
	s.heap = append(s.heap, e)
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(s.heap[i], s.heap[parent]) {
			break
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
}

func (s *Sched[T]) heapPop() entry[T] {
	top := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && entryLess(s.heap[l], s.heap[small]) {
			small = l
		}
		if r < last && entryLess(s.heap[r], s.heap[small]) {
			small = r
		}
		if small == i {
			break
		}
		s.heap[i], s.heap[small] = s.heap[small], s.heap[i]
		i = small
	}
	return top
}

func entryLess[T any](a, b entry[T]) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}
