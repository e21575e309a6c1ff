package sim

import "sync"

// Group runs several engines as the shards of one conservatively
// parallel simulation. Each epoch every shard advances to the same
// barrier time; between epochs the caller drains cross-shard staging
// queues (see netsim) and computes the next barrier from the shards'
// earliest pending events plus the lookahead window.
//
// Shard 0 always runs on the caller's goroutine; shards 1..n-1 each get
// a persistent worker goroutine. How an epoch reaches those workers is
// the BarrierMode: the default hybrid barrier releases each busy worker
// with one atomic store (spin-then-park on both sides) and — the epoch
// batching — runs windows where at most ONE shard has pending work
// entirely inline on the coordinator, costing zero goroutine crossings.
// That is safe for the same reason idle-skipping is: between epochs the
// workers are quiescent and the coordinator already owns every engine
// (it reads NextAt to size the window and drains staging queues into
// them); atomics on the command slots order the handoff both ways.
//
// A Group of one engine degenerates to plain serial execution with no
// goroutines and no channels, so the serial path pays nothing.
// A Group checkpoint (GroupState) carries only the barrier counters that
// equivalence tests compare; the worker machinery below is live goroutine
// state, rebuilt from scratch when the resumed run constructs its Group.
type Group struct {
	engines []*Engine   //ckpt:skip member engines capture their own EngineStates
	mode    BarrierMode //ckpt:skip construction input, chosen again by the resuming run
	closed  bool        //ckpt:skip lifecycle flag; a restored Group starts fresh

	// Hybrid-barrier state: one padded command slot per worker plus the
	// shared join barrier. busy is coordinator-private scratch.
	slots []*workerSlot //ckpt:skip live goroutine handshake state, rebuilt by NewGroup
	join  joinBarrier   //ckpt:skip live goroutine handshake state, rebuilt by NewGroup
	busy  []int         //ckpt:skip coordinator-private scratch, meaningless between epochs

	// Legacy channel-barrier state.
	work []chan Time //ckpt:skip live channels, rebuilt by NewGroup
	//lint:ignore simgoroutine Group IS the sanctioned concurrency primitive; this joins its own epoch workers
	wg sync.WaitGroup //ckpt:skip goroutine join state, rebuilt by NewGroup

	// Barrier-overhead counters, maintained unconditionally (a few slice
	// increments per shard per epoch — noise against an epoch's barrier
	// crossing) and surfaced only through opt-in telemetry
	// (netsim.RegisterShardMetrics), so default runs format nothing.
	// epochs/dispatched/skipped follow identical rules in both modes, so
	// equivalence tests can compare them across modes; crossings and
	// inlined describe the hybrid barrier's batching and stay zero under
	// BarrierChannel.
	epochs     uint64   // barriers executed
	dispatched []uint64 // per shard: epochs it had work inside the window
	skipped    []uint64 // per shard: epochs it was idle and only advanced its clock
	crossings  uint64   //ckpt:skip hybrid-batching telemetry; GroupState compares only the mode-independent counters
	inlined    uint64   //ckpt:skip hybrid-batching telemetry; GroupState compares only the mode-independent counters
}

// NewGroup builds a group over engines using the default hybrid
// barrier. The slice must be non-empty; the group takes ownership of
// running them (callers must not call Run on a member engine while an
// epoch is in flight).
func NewGroup(engines []*Engine) *Group {
	return NewGroupMode(engines, BarrierHybrid)
}

// NewGroupMode builds a group with an explicit barrier mode. Both modes
// execute identical schedules — every event on the same shard in the
// same order — and keep identical epoch/dispatch/skip counters; they
// differ only in synchronization cost.
func NewGroupMode(engines []*Engine, mode BarrierMode) *Group {
	if len(engines) == 0 {
		panic("sim: empty engine group")
	}
	g := &Group{
		engines:    engines,
		mode:       mode,
		dispatched: make([]uint64, len(engines)),
		skipped:    make([]uint64, len(engines)),
	}
	if len(engines) == 1 {
		return g
	}
	switch mode {
	case BarrierChannel:
		g.work = make([]chan Time, len(engines)-1)
		for i := range g.work {
			ch := make(chan Time, 1)
			g.work[i] = ch
			eng := engines[i+1]
			//lint:ignore simgoroutine Group's persistent epoch workers are the one sanctioned fabric spawn point
			go func() {
				for t := range ch {
					eng.Run(t)
					g.wg.Done()
				}
			}()
		}
	default:
		g.join.wake = make(chan struct{}, 1)
		g.busy = make([]int, 0, len(engines)-1)
		g.slots = make([]*workerSlot, len(engines)-1)
		for i := range g.slots {
			s := &workerSlot{wake: make(chan struct{}, 1)}
			g.slots[i] = s
			eng := engines[i+1]
			//lint:ignore simgoroutine Group's persistent epoch workers are the one sanctioned fabric spawn point
			go func() {
				for n := uint64(1); ; n++ {
					t := s.await(n)
					if g.closed {
						return
					}
					eng.Run(t)
					g.join.done()
				}
			}()
		}
	}
	return g
}

// N returns the number of shards.
func (g *Group) N() int { return len(g.engines) }

// Engine returns shard i's engine.
func (g *Group) Engine(i int) *Engine { return g.engines[i] }

// Mode returns the group's barrier mode.
func (g *Group) Mode() BarrierMode { return g.mode }

// RunEpoch advances every shard to until and blocks until all have
// arrived at the barrier. With one shard it is exactly Engine.Run.
//
// Shards with no event inside the window are not dispatched: the
// coordinator advances their clock inline (SkipTo) instead of paying a
// barrier crossing for a no-op epoch. Under the hybrid barrier a window
// with exactly one busy worker shard is also run inline — consecutive
// such epochs (the common shape at high shard counts, where idle
// skipping already thins the busy set) batch into zero crossings.
//
//lint:hotpath epoch barrier; 0-alloc contract of BenchmarkGroupEpoch
func (g *Group) RunEpoch(until Time) {
	g.epochs++
	if len(g.engines) == 1 {
		g.engines[0].Run(until)
		g.dispatched[0]++
		return
	}
	if g.mode == BarrierChannel {
		g.runEpochChannel(until)
		return
	}
	busy := g.busy[:0]
	for i := 1; i < len(g.engines); i++ {
		eng := g.engines[i]
		if at, ok := eng.NextAt(); !ok || at > until {
			eng.SkipTo(until)
			g.skipped[i]++
			continue
		}
		g.dispatched[i]++
		//lint:ignore hotalloc coordinator scratch preallocated to len(engines)-1 in NewGroupMode; busy starts at g.busy[:0] so this never grows
		busy = append(busy, i)
	}
	g.busy = busy
	if len(busy) > 1 {
		g.crossings++
		g.join.arm(len(busy))
		for _, i := range busy {
			s := g.slots[i-1]
			s.seq++
			s.release(s.seq, until)
		}
	}
	g.engines[0].Run(until)
	g.dispatched[0]++
	switch len(busy) {
	case 0:
	case 1:
		// Epoch batching: a singleton busy set runs on the coordinator.
		// The worker is parked; the last barrier crossing ordered its
		// engine's state to us, and the next release orders ours back.
		g.inlined++
		g.engines[busy[0]].Run(until)
	default:
		g.join.wait()
	}
}

// runEpochChannel is the legacy channel + WaitGroup epoch, preserved
// verbatim as the reference implementation for equivalence tests.
func (g *Group) runEpochChannel(until Time) {
	busy := 0
	for i, ch := range g.work {
		eng := g.engines[i+1]
		if at, ok := eng.NextAt(); !ok || at > until {
			eng.SkipTo(until)
			g.skipped[i+1]++
			continue
		}
		g.dispatched[i+1]++
		busy++
		g.wg.Add(1)
		ch <- until
	}
	g.engines[0].Run(until)
	g.dispatched[0]++
	if busy > 0 {
		g.wg.Wait()
	}
}

// Close shuts down the worker goroutines. The group must be idle (no
// epoch in flight). Safe to call more than once.
func (g *Group) Close() {
	if g.closed {
		return
	}
	g.closed = true
	for _, ch := range g.work {
		close(ch)
	}
	for _, s := range g.slots {
		// The closed flag is ordered to the worker by the release store.
		s.seq++
		s.release(s.seq, 0)
	}
}

// Now returns the current barrier time (all shards agree between
// epochs; shard 0 is authoritative).
func (g *Group) Now() Time { return g.engines[0].Now() }

// Events returns the total number of events executed across shards.
func (g *Group) Events() uint64 {
	var n uint64
	for _, e := range g.engines {
		n += e.Events()
	}
	return n
}

// Pending returns the total number of live queued events across shards.
func (g *Group) Pending() int {
	var n int
	for _, e := range g.engines {
		n += e.Pending()
	}
	return n
}

// Epochs returns the number of barriers executed so far.
func (g *Group) Epochs() uint64 { return g.epochs }

// Dispatched returns how many epochs shard i ran with work inside the
// window; Skipped how many it skipped as idle. Together they sum to
// Epochs (shard 0 always runs, so its skip count stays zero).
func (g *Group) Dispatched(i int) uint64 { return g.dispatched[i] }

// Skipped returns how many epochs shard i was idle-skipped.
func (g *Group) Skipped(i int) uint64 { return g.skipped[i] }

// Crossings returns how many epochs paid a cross-goroutine barrier
// round-trip under the hybrid barrier (zero under BarrierChannel, which
// crosses on every epoch with any busy worker).
func (g *Group) Crossings() uint64 { return g.crossings }

// Inlined returns how many worker-shard epochs the hybrid barrier ran
// inline on the coordinator (the epoch-batching fast path).
func (g *Group) Inlined() uint64 { return g.inlined }

// NextAt returns the earliest pending event time across shards, or
// false when every shard's queue is empty. Only meaningful between
// epochs.
func (g *Group) NextAt() (Time, bool) {
	var min Time
	ok := false
	for _, e := range g.engines {
		if at, has := e.NextAt(); has && (!ok || at < min) {
			min, ok = at, true
		}
	}
	return min, ok
}
