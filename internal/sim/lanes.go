package sim

// Delay lanes: per-delay FIFO event lanes in front of the band-0 queue
// (DESIGN.md §18).
//
// Events scheduled with the same relative delay d are stamped
// at = now + d with a fresh seq. The clock never runs backwards and seq
// only grows, so successive events of one delay arrive already sorted in
// the engine's (time, seq) order: a plain FIFO per delay is a sorted
// queue with O(1) push and pop. Simulations schedule overwhelmingly from
// a handful of recurring delays — host and switch latencies,
// serialization times, serialization plus propagation, protocol pacing
// ticks — so nearly every band-0 event can bypass the heap entirely.
// Absolute-time Schedule/ScheduleFunc calls share one extra lane, which
// takes an arrival-sorted trace injected at t=0 as one FIFO instead of
// thousands of heap entries.
//
// Correctness never depends on which lane an event was offered to: a
// lane accepts an event only if it sorts after the lane's tail, so every
// lane stays sorted, and any event a lane refuses goes to the residual
// heap. Execution merges the lane heads — kept in a small binary heap
// with each head's (at, seq) stored inline — with the residual heap's
// minimum and the band-1 arrival heap's root, by the same (time, seq)
// order as ever. Which structure holds an event is physical layout; the
// execution order, and so every digest, is the one total order.
//
// Binding. The relative lanes form a direct-mapped table indexed by a
// hash of the delay, probed at two adjacent slots. A slot whose delay
// matches takes the event. A delay binds a slot only when it recurs: the
// first push of a delay finding no matching slot goes to the residual
// queue and leaves the delay as the candidate of an empty probed slot;
// the next push of the same delay then finds that slot and binds it. An
// empty slot is free to be rebound this way, so a slot serves whichever
// recurring delay last claimed it, while random-delay traffic (the
// hold-model benchmarks) stays on the residual queue at the cost of the
// probe.
//
// Cancellation. A lane is a singly linked list through event.next, so an
// event inside it cannot be unlinked in O(1). Cancelling the head removes
// it at once; cancelling any other lane event turns it into a tombstone:
// its gen is bumped and its callback cleared immediately (the Timer goes
// inert and Pending stops counting it), and the event object is
// recycled when it reaches the head. Lane heads are therefore always
// live, which keeps NextAt and the lane-head heap exact.

const (
	laneSlots = 64        // relative-delay lanes, a power of two
	laneAbs   = laneSlots // the shared lane for absolute-time schedules
	laneCount = laneSlots + 1
	laneShift = 64 - 6 // laneIndex's hash shift: log2(laneSlots) top bits

	// Event location sentinels in event.idx. Non-negative values are heap
	// or bucket slots; a live lane event holds idxLane0 - its lane.
	idxNone  = -1 // not queued: free, running, or a lane tombstone
	idxLane0 = -2
)

// noDelay marks a lane slot with no bound or candidate delay. Delays are
// never negative, so it matches nothing.
const noDelay = Duration(-1)

// lane is one FIFO of band-0 events in (at, seq) order. Checkpoints walk
// a lane only to enumerate its live events; everything else is physical
// layout that EngineState normalizes away.
type lane struct {
	head *event // earliest event; always live
	// tail is the latest event (possibly a tombstone); last is its
	// timestamp, kept inline so the accept check does not dereference it.
	tail *event //ckpt:skip lane tail, physical layout normalized away by EngineState
	last Time   //ckpt:skip accept bound, physical layout normalized away by EngineState
	pos  int32  //ckpt:skip slot in Engine.lh while non-empty, physical layout normalized away by EngineState
}

// laneKey is one lane-head heap entry: the head's ordering key stored
// inline, so merging the lanes touches only this small array.
type laneKey struct {
	at  Time
	seq uint64
	ln  int32
}

func keyLess(a, b *laneKey) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// laneIndex hashes a delay to its first table slot (Fibonacci hashing:
// the multiply spreads the low-entropy low bits of picosecond delays
// into the top bits kept).
func laneIndex(d Duration) int {
	return int(uint64(d) * 0x9E3779B97F4A7C15 >> laneShift)
}

// resetLanes empties every lane and clears the binding table.
func (e *Engine) resetLanes() {
	for i := range e.lanes {
		e.lanes[i] = lane{pos: -1}
	}
	for i := range e.delays {
		e.delays[i] = noDelay
	}
	e.busy = 0
	e.lhN = 0
	e.laneN = 0
}

// laneAfter returns the lane that takes an event d after now, or -1 for
// the residual queue: the probed slot bound to (or recurring as the
// candidate for) d. A delay finding no slot becomes the candidate of the
// first empty probed slot. The binding table and the busy mask are kept
// apart from the lanes so a probe reads one cache line plus one word.
func (e *Engine) laneAfter(d Duration) int {
	i := laneIndex(d)
	j := i ^ 1
	switch {
	case e.delays[i] == d:
		return i
	case e.delays[j] == d:
		return j
	case e.busy&(1<<i) == 0:
		e.delays[i] = d
	case e.busy&(1<<j) == 0:
		e.delays[j] = d
	}
	return -1
}

// laneAppend queues t on lane ln if t sorts after the lane's tail, and
// reports whether it did. Every t comes fresh from newEvent, so its seq
// exceeds every queued band-0 seq and "after the tail" reduces to
// at >= tail.at.
func (e *Engine) laneAppend(ln int, t *event) bool {
	l := &e.lanes[ln]
	if l.head == nil {
		l.head, l.tail, l.last = t, t, t.at
		t.idx = int32(idxLane0 - ln)
		e.laneN++
		e.busy |= 1 << ln // laneAbs shifts out: the mask covers the table only
		e.lhPush(ln, t)
		return true
	}
	if t.at < l.last {
		return false
	}
	l.tail.next = t
	l.tail, l.last = t, t.at
	t.idx = int32(idxLane0 - ln)
	e.laneN++
	return true
}

// lanePop removes and returns the earliest lane head (lh[0]); the caller
// guarantees one exists.
func (e *Engine) lanePop() *event {
	ln := int(e.lh[0].ln)
	t := e.lanes[ln].head
	e.laneN--
	e.laneAdvance(ln, t.next)
	return t
}

// laneAdvance makes h (or the first live event after it) the head of lane
// ln, recycling the tombstones it skips, and updates the lane's heap
// entry: a later key sifts down, an emptied lane leaves the heap.
func (e *Engine) laneAdvance(ln int, h *event) {
	for h != nil && h.idx == idxNone {
		next := h.next
		e.reclaim(h)
		h = next
	}
	l := &e.lanes[ln]
	l.head = h
	pos := int(l.pos)
	if h == nil {
		l.tail = nil
		l.pos = -1
		e.busy &^= 1 << ln
		e.lhRemove(pos)
		return
	}
	e.lhDown(pos, laneKey{at: h.at, seq: h.seq, ln: int32(ln)})
}

// laneCancel removes a live lane event: the head leaves at once, any
// other event becomes a tombstone recycled when it reaches the head.
func (e *Engine) laneCancel(t *event) {
	ln := idxLane0 - int(t.idx)
	e.laneN--
	if e.lanes[ln].head == t {
		e.laneAdvance(ln, t.next)
		e.recycle(t)
		return
	}
	e.invalidate(t)
}

// lhPush adds lane ln, whose head is t, to the lane-head heap.
func (e *Engine) lhPush(ln int, t *event) {
	i := e.lhN
	e.lhN++
	e.lhUp(i, laneKey{at: t.at, seq: t.seq, ln: int32(ln)})
}

// lhRemove deletes lane-head heap entry i.
func (e *Engine) lhRemove(i int) {
	n := e.lhN - 1
	e.lhN = n
	if i == n {
		return
	}
	k := e.lh[n]
	e.lhUp(i, k)
	if int(e.lanes[k.ln].pos) == i {
		e.lhDown(i, k)
	}
}

// The sift helpers take the moving key by value and write it once, at
// its final slot, instead of re-reading an entry just stored (a
// store-forwarding stall on the 24-byte key).

// lhUp places k, starting from the hole at entry i, above any larger
// parent (binary heap).
func (e *Engine) lhUp(i int, k laneKey) {
	for i > 0 {
		p := (i - 1) >> 1
		if !keyLess(&k, &e.lh[p]) {
			break
		}
		e.lh[i] = e.lh[p]
		e.lanes[e.lh[i].ln].pos = int32(i)
		i = p
	}
	e.lh[i] = k
	e.lanes[k.ln].pos = int32(i)
}

// lhDown places k, starting from the hole at entry i, below any smaller
// child.
func (e *Engine) lhDown(i int, k laneKey) {
	n := e.lhN
	for {
		c := i<<1 + 1
		if c >= n {
			break
		}
		if c+1 < n && keyLess(&e.lh[c+1], &e.lh[c]) {
			c++
		}
		if !keyLess(&e.lh[c], &k) {
			break
		}
		e.lh[i] = e.lh[c]
		e.lanes[e.lh[i].ln].pos = int32(i)
		i = c
	}
	e.lh[i] = k
	e.lanes[k.ln].pos = int32(i)
}
