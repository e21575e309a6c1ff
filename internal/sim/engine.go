package sim

import "math/rand"

// Engine is a deterministic discrete-event simulator. Events are executed
// in non-decreasing timestamp order; events scheduled for the same instant
// run in the order they were scheduled (stable FIFO tie-break), which keeps
// protocol state machines deterministic.
//
// Band-0 events (everything but ScheduleArrival) live in two places.
// Most sit on delay lanes (lanes.go): one FIFO per recurring relative
// delay plus one for absolute-time schedules, each already sorted because
// a lane only accepts an event that sorts after its tail. The rest — the
// events no lane accepted — sit in the residual queue, an inlined 4-ary
// min-heap ordered by (time, seq). A 4-ary layout halves tree depth
// versus binary, so the sift loops touch fewer cache lines per
// operation, and inlining the comparisons avoids container/heap's
// interface-call overhead. Step merges the lane heads, the residual
// minimum and the band-1 arrival root by the one (time, seq) order, so
// where an event was queued never changes when it runs. Fired and cancelled events are recycled through a
// free list, so steady-state scheduling allocates nothing.
// Sharded execution (see Group) splits one simulation across several
// engines and relies on a two-band ordering of the seq field: ordinary
// events occupy band 0 (engine-local insertion sequence, top bit clear)
// and boundary-link arrivals occupy band 1 (ScheduleArrival, top bit
// set), whose ordinal is derived from the link identity rather than
// insertion order. Band-1 events therefore sort after every band-0 event
// at the same instant, and among themselves in a shard-count-invariant
// order — the property that makes sharded runs byte-identical to serial.
type Engine struct {
	now    Time
	q      []*event // residual band-0 events: 4-ary min-heap by (at, seq)
	qa     []*event // arrival-band events (ScheduleArrival), same order
	seq    uint64
	nEvent uint64 // total events executed, for instrumentation
	free   *event //ckpt:skip recycled-event free list, physical layout normalized away by EngineState
	freeN  int    //ckpt:skip free-list length, same normalization as free
	lhN    int    //ckpt:skip lane-head heap size, physical layout normalized away by EngineState
	laneN  int    //ckpt:skip derived live lane-event count, physical layout normalized away by EngineState
	busy   uint64 //ckpt:skip bit i set while relative lane i is non-empty, physical layout normalized away by EngineState

	journalOn bool          //ckpt:skip bisection instrumentation, re-armed by StartJournal after resume
	journal   []EventRecord //ckpt:skip bisection instrumentation, not simulation state

	seed int64           //ckpt:skip construction input; the RNG position is captured as Draws
	src  *CountingSource // rng's source, counted so RNG position is checkpointable
	rng  *rand.Rand      //ckpt:skip rebuilt from seed + captured Draws on restore

	// Delay lanes (lanes.go) hold most band-0 events, one sorted FIFO per
	// recurring delay. The per-event scalars above stay together in front
	// of these tables.
	delays [laneSlots]Duration //ckpt:skip lane binding table: each slot's bound delay, or its candidate while empty
	lh     [laneCount]laneKey  //ckpt:skip lane-head heap over non-empty lanes, physical layout normalized away by EngineState
	lanes  [laneCount]lane
}

// QueueDiscipline, QueueAuto, QueueHeap, PickQueue and NewEngineQueue
// remain only because the perfbench module still names them; it is
// their only caller, and the next change to perfbench deletes them. The
// engine has one residual queue, the 4-ary heap, so every discipline is
// the heap.
type QueueDiscipline uint8

const (
	QueueAuto QueueDiscipline = iota
	QueueHeap
)

// PickQueue returns QueueHeap; see QueueDiscipline.
func PickQueue(QueueDiscipline, int) QueueDiscipline { return QueueHeap }

// maxFreeEvents bounds the event free list. A transient event burst
// (fan-in spikes at high load hold 10^6+ concurrent events) would
// otherwise pin its peak allocation for the rest of a long campaign;
// recycles past the bound are dropped for the GC instead. A variable so
// tests can shrink it.
var maxFreeEvents = 1 << 15

// event is one scheduled callback. Events are owned by the engine: when
// one fires or is cancelled it returns to the free list and its gen is
// bumped, which atomically invalidates every outstanding Timer handle.
// Checkpoints capture an event as its execution-order key (at, seq) only:
// the callback fields hold Go closures, which cannot be serialized, and
// the location fields are physical layout that EngineState normalizes
// away (see checkpoint.go). Restore rebinds callbacks via RebindFunc.
type event struct {
	eng *Engine //ckpt:skip owner back-pointer, re-established when the restored engine re-allocates events
	at  Time
	seq uint64
	gen uint32 //ckpt:skip timer-invalidation stamp; outstanding Timers cannot outlive a restore
	// idx is the heap slot; for lane events idxLane0 minus the lane,
	// and idxNone once the event is off every queue (a cancelled lane
	// event keeps its list position as a tombstone with idxNone).
	idx int32 //ckpt:skip queue location, physical layout normalized away by EngineState

	// Exactly one of fn / fnArgs is set. The argument form lets hot paths
	// (one event per packet hop) schedule a package-level function plus
	// its arguments without allocating a closure.
	fnArgs func(a, b any, i int) //ckpt:skip closure, rebound by RebindFunc on restore
	a, b   any                   //ckpt:skip closure arguments, rebound with fnArgs
	i      int                   //ckpt:skip closure argument, rebound with fnArgs
	fn     func()                //ckpt:skip closure, rebound by RebindFunc on restore

	next *event //ckpt:skip free-list or lane link, physical layout normalized away by EngineState
}

// Timer is a cancellable handle to a scheduled event. The zero Timer is
// inert: Cancel is a no-op and Active reports false. A handle stays safe
// to use after its event fires or is cancelled — the generation stamp
// detects that the underlying event object has been recycled, so a stale
// Cancel can never affect a newer timer reusing the same storage.
type Timer struct {
	ev  *event
	gen uint32
}

// Active reports whether the timer is still scheduled (not yet fired and
// not cancelled).
func (t Timer) Active() bool { return t.ev != nil && t.ev.gen == t.gen }

// At returns the time the timer fires, or 0 if it is no longer active.
func (t Timer) At() Time {
	if t.Active() {
		return t.ev.at
	}
	return 0
}

// Cancel removes the timer's event from the queue so it will never run.
// Safe to call more than once, on the zero Timer, and on a timer that
// already fired.
func (t Timer) Cancel() {
	if t.Active() {
		t.ev.eng.remove(t.ev)
	}
}

// NewEngine returns an engine with the clock at zero and a random source
// seeded with seed.
func NewEngine(seed int64) *Engine {
	src := NewCountingSource(seed)
	e := &Engine{seed: seed, src: src, rng: rand.New(src)}
	e.resetLanes()
	return e
}

// NewEngineQueue is NewEngine; see QueueDiscipline.
func NewEngineQueue(seed int64, _ QueueDiscipline) *Engine { return NewEngine(seed) }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Seed returns the seed the engine was constructed with. Components that
// need their own deterministic random streams (per-device RNGs in the
// sharded fabric) derive them from this.
func (e *Engine) Seed() int64 { return e.seed }

// NextAt returns the timestamp of the earliest pending event, or false
// when the queue is empty. Epoch runners use it to size the next
// conservative window.
func (e *Engine) NextAt() (Time, bool) {
	at, src := e.nextSource()
	return at, src != srcNone
}

// Rand returns the engine's deterministic random source. All simulation
// components must draw randomness from here to preserve reproducibility.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Events returns the number of events executed so far.
func (e *Engine) Events() uint64 { return e.nEvent }

// Pending returns the number of live events currently queued. Cancelled
// events stop counting immediately (a cancelled lane event's tombstone
// included).
func (e *Engine) Pending() int {
	return len(e.q) + len(e.qa) + e.laneN
}

// alloc takes an event from the free list, or makes one.
//
//lint:coldpath event-slab growth; the free list covers steady state, allocating only while the live event population grows
func (e *Engine) alloc() *event {
	t := e.free
	if t != nil {
		e.free = t.next
		e.freeN--
		t.next = nil
		return t
	}
	return &event{eng: e}
}

// recycle invalidates outstanding handles and returns t to the free list.
func (e *Engine) recycle(t *event) {
	e.invalidate(t)
	e.reclaim(t)
}

// invalidate makes every outstanding handle to t inert and drops its
// callback references. A cancelled lane event stops here, as a
// tombstone, until it reaches its lane's head.
func (e *Engine) invalidate(t *event) {
	t.gen++
	t.fn = nil
	t.fnArgs = nil
	t.a, t.b = nil, nil
	t.i = 0
	t.idx = idxNone
}

// reclaim returns an invalidated event to the free list — unless the
// list is already at its bound, in which case the event is dropped for
// the GC so a transient burst's peak does not stay resident forever.
func (e *Engine) reclaim(t *event) {
	if e.freeN >= maxFreeEvents {
		return
	}
	t.next = e.free
	e.free = t
	e.freeN++
}

// pushAt allocates an event at absolute time at and queues it on the
// absolute-time lane, or in the residual queue when it sorts before that
// lane's tail. Scheduling in the past panics: it would silently corrupt
// causality.
func (e *Engine) pushAt(at Time) *event {
	if at < e.now {
		panic("sim: scheduling event in the past")
	}
	t := e.newEvent(at)
	if !e.laneAppend(laneAbs, t) {
		e.pushResidual(t)
	}
	return t
}

// pushAfter allocates an event d after the current time and queues it on
// the lane bound to d, or in the residual queue when d has no lane.
func (e *Engine) pushAfter(d Duration) *event {
	if d < 0 {
		panic("sim: negative delay")
	}
	t := e.newEvent(e.now.Add(d))
	if ln := e.laneAfter(d); ln < 0 || !e.laneAppend(ln, t) {
		e.pushResidual(t)
	}
	return t
}

// newEvent allocates a band-0 event at at with the next sequence number.
func (e *Engine) newEvent(at Time) *event {
	t := e.alloc()
	t.at = at
	t.seq = e.seq
	e.seq++
	return t
}

// pushResidual inserts t into the residual heap.
func (e *Engine) pushResidual(t *event) {
	t.idx = int32(len(e.q))
	//lint:ignore hotalloc heap growth is amortized to the peak event population; the backing array is reused for the rest of the run
	e.q = append(e.q, t)
	siftUp(e.q, int(t.idx))
}

// arrivalBand is the top bit of the seq ordering key. Engine-local
// sequence numbers never reach it, so every ScheduleArrival event sorts
// after every ordinary event at the same timestamp.
const arrivalBand = uint64(1) << 63

// ScheduleArrival runs fn(a, b, i) at absolute time at, ordered among
// same-instant events by the band-1 key rather than by insertion order:
// all arrivals sort after every ordinarily-scheduled event at that
// instant, and among themselves by key. Callers derive the key from
// stable simulation identity (directed link id and per-link sequence),
// which makes the execution order independent of *when* the event was
// inserted — the property cross-shard staging queues need to keep
// sharded runs byte-identical to serial ones. Keys must be unique per
// (time, key) pair; the caller's per-link counters guarantee that.
//
// Arrivals live in their own heap: identity-derived keys are not
// insertion-ordered, and mixing them into the main heap measurably slows
// its sift paths (band-0 pushes are near-sorted, so their sifts terminate
// almost immediately). The split keeps the main heap's comparisons on
// monotonic keys and confines arrival-key comparisons to the small
// in-flight-arrivals heap; Step merges the two roots, where the band bit
// in seq settles every same-instant tie in the main heap's favor.
//
//lint:hotpath one event per packet hop; 0-alloc contract of BenchmarkFabricForwarding
func (e *Engine) ScheduleArrival(at Time, key uint64, fn func(a, b any, i int), a, b any, i int) {
	if at < e.now {
		panic("sim: scheduling event in the past")
	}
	t := e.alloc()
	t.at = at
	t.seq = arrivalBand | key
	t.idx = int32(len(e.qa))
	//lint:ignore hotalloc arrival-heap growth is amortized to the peak in-flight arrival count; the backing array is reused for the rest of the run
	e.qa = append(e.qa, t)
	siftUp(e.qa, int(t.idx))
	t.fnArgs = fn
	t.a, t.b, t.i = a, b, i
}

// Schedule runs fn at absolute time at.
func (e *Engine) Schedule(at Time, fn func()) Timer {
	t := e.pushAt(at)
	t.fn = fn
	return Timer{ev: t, gen: t.gen}
}

// After runs fn d after the current time.
func (e *Engine) After(d Duration, fn func()) Timer {
	t := e.pushAfter(d)
	t.fn = fn
	return Timer{ev: t, gen: t.gen}
}

// AfterFunc runs fn(a, b, i) d after the current time. Unlike After it
// captures the arguments in the event itself rather than in a closure, so
// per-packet paths can schedule without allocating; fn should be a
// package-level function. Pointer-shaped arguments (the usual case) do
// not allocate when converted to any.
//
//lint:hotpath per-packet timer scheduling; 0-alloc contract of the forwarding benchmarks
func (e *Engine) AfterFunc(d Duration, fn func(a, b any, i int), a, b any, i int) Timer {
	t := e.pushAfter(d)
	t.fnArgs = fn
	t.a, t.b, t.i = a, b, i
	return Timer{ev: t, gen: t.gen}
}

// ScheduleFunc runs fn(a, b, i) at absolute time at — the argument-form
// counterpart of Schedule, used by timeline installers (fault schedules)
// that place many events at pre-computed absolute times without building
// a closure per event.
func (e *Engine) ScheduleFunc(at Time, fn func(a, b any, i int), a, b any, i int) Timer {
	t := e.pushAt(at)
	t.fnArgs = fn
	t.a, t.b, t.i = a, b, i
	return Timer{ev: t, gen: t.gen}
}

// Step executes the next pending event, if any, and reports whether one
// ran. The event is recycled before its callback runs, so the callback may
// immediately reuse the storage by scheduling new events; its own handle
// is already inert by the time it executes.
//
//lint:hotpath event drain loop; 0-alloc contract of BenchmarkEngineHold
func (e *Engine) Step() bool { return e.stepUntil(timeMax) }

// Event sources nextSource chooses between.
const (
	srcNone = iota
	srcLane
	srcMain
	srcArrival
)

// nextSource returns the timestamp of the earliest pending event and
// which queue holds it: the lane-head heap, the residual queue, or the
// band-1 arrival heap. Arrival keys carry the band bit in seq, so every
// same-instant tie goes to band 0.
func (e *Engine) nextSource() (Time, int) {
	var at Time
	var seq uint64
	src := srcNone
	if len(e.q) > 0 {
		at, seq, src = e.q[0].at, e.q[0].seq, srcMain
	}
	if e.lhN > 0 {
		if k := &e.lh[0]; src == srcNone || k.at < at || (k.at == at && k.seq < seq) {
			at, seq, src = k.at, k.seq, srcLane
		}
	}
	if len(e.qa) > 0 {
		if a := e.qa[0]; src == srcNone || a.at < at || (a.at == at && a.seq < seq) {
			at, src = a.at, srcArrival
		}
	}
	return at, src
}

// stepUntil executes the next pending event if it is stamped at or
// before until, and reports whether one ran.
func (e *Engine) stepUntil(until Time) bool {
	at, src := e.nextSource()
	if src == srcNone || at > until {
		return false
	}
	var t *event
	switch src {
	case srcLane:
		t = e.lanePop()
	case srcMain:
		t = popRoot(&e.q)
	default:
		t = popRoot(&e.qa)
	}
	e.now = t.at
	e.nEvent++
	if e.journalOn {
		//lint:ignore hotalloc opt-in replay journal, off on every measured path; the guard above keeps default runs alloc-free
		e.journal = append(e.journal, EventRecord{At: t.at, Seq: t.seq})
	}
	fn, fnArgs, a, b, i := t.fn, t.fnArgs, t.a, t.b, t.i
	e.recycle(t)
	if fnArgs != nil {
		fnArgs(a, b, i)
	} else {
		fn()
	}
	return true
}

// SkipTo advances the clock to at without executing anything. Callers
// must have checked that no pending event is stamped at or before at
// (Group's idle-skip dispatch does, via NextAt); otherwise events would
// run late. Equivalent to Run(at) on an idle engine, minus the queue
// peeks.
func (e *Engine) SkipTo(at Time) {
	if at > e.now {
		e.now = at
	}
}

// Run executes events until the queue is empty or the clock would pass
// until. Events stamped exactly at until still run. The clock is left at
// the later of its current value and until when the horizon is hit.
func (e *Engine) Run(until Time) {
	for e.stepUntil(until) {
	}
	if e.now < until {
		e.now = until
	}
}

// RunAll executes events until the queue drains. Intended for workloads
// with a natural end (all flows complete); a runaway protocol that
// reschedules itself forever will not terminate, so callers with periodic
// timers should use Run.
func (e *Engine) RunAll() {
	for e.Step() {
	}
}

// eventLess is the heap order: earlier time first, scheduling order as the
// tie-break.
func eventLess(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// popRoot removes and returns a heap's minimum event without recycling
// it (Step still needs its fields).
func popRoot(qp *[]*event) *event {
	q := *qp
	t := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	*qp = q[:n]
	if n > 0 {
		q[0] = last
		last.idx = 0
		siftDown(q[:n], 0)
	}
	return t
}

// remove deletes an arbitrary queued event (cancellation) and recycles
// it. Only band-0 events can be cancelled: ScheduleArrival returns no
// Timer, so arrival events never come through here.
func (e *Engine) remove(t *event) {
	if t.idx <= idxLane0 {
		e.laneCancel(t)
		return
	}
	heapRemove(&e.q, t)
	e.recycle(t)
}

// heapRemove deletes an arbitrary event from a (time, seq) heap.
func heapRemove(qp *[]*event, t *event) {
	q := *qp
	i := int(t.idx)
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	*qp = q[:n]
	if i != n {
		q = q[:n]
		q[i] = last
		last.idx = int32(i)
		siftUp(q, i)
		if int(last.idx) == i {
			siftDown(q, i)
		}
	}
}

// siftUp restores the heap above index i (4-ary: parent of i is (i-1)/4).
func siftUp(q []*event, i int) {
	t := q[i]
	for i > 0 {
		p := (i - 1) >> 2
		pt := q[p]
		if !eventLess(t, pt) {
			break
		}
		q[i] = pt
		pt.idx = int32(i)
		i = p
	}
	q[i] = t
	t.idx = int32(i)
}

// siftDown restores the heap below index i (4-ary: children 4i+1..4i+4).
func siftDown(q []*event, i int) {
	n := len(q)
	t := q[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m, mt := c, q[c]
		hi := c + 4
		if hi > n {
			hi = n
		}
		for j := c + 1; j < hi; j++ {
			if eventLess(q[j], mt) {
				m, mt = j, q[j]
			}
		}
		if !eventLess(mt, t) {
			break
		}
		q[i] = mt
		mt.idx = int32(i)
		i = m
	}
	q[i] = t
	t.idx = int32(i)
}
