package sim

import (
	"fmt"
	"math/rand"
	"sort"
)

// Checkpoint support. Events hold Go closures, which cannot be
// serialized; what CAN be captured exactly is everything that determines
// future execution order and randomness — the clock, the sequence
// allocator, the (time, seq) key of every pending event, and the RNG
// position. CaptureState returns that as plain data; the checkpoint file
// format lives in internal/checkpoint, and the experiment runner
// (experiments.Resume) reconstructs closures by re-running the
// deterministic setup and replaying to the snapshot time, verifying the
// captured state byte-for-byte on arrival. RestoreState covers the other
// direction for callers that CAN rebind callbacks (round-trip tests, and
// any future self-describing event kinds): it rebuilds the queues from a
// captured state, all-or-nothing.

// EventRecord is the execution-order key of one event: its timestamp and
// its full seq word (band bit included, so band-1 arrival keys are
// preserved verbatim).
type EventRecord struct {
	At  Time
	Seq uint64
}

// EngineState is a complete logical snapshot of one engine: everything
// that determines its future behavior, with physical layout (heap array
// order, delay-lane bindings and tombstones, free lists) normalized away. Two engines with equal EngineStates execute
// identically from here on.
type EngineState struct {
	Now    Time
	Seq    uint64 // next band-0 sequence number
	Events uint64 // events executed so far
	Draws  uint64 // RNG draws consumed from the seeded source
	// Pending holds every queued event in execution order (sorted by
	// (At, Seq)), both bands merged.
	Pending []EventRecord
}

// CaptureState snapshots the engine. Pure reads: the queues are walked
// without popping, so capture at a barrier never perturbs the run — the property that lets periodic
// checkpointing coexist with byte-identity goldens.
func (e *Engine) CaptureState() EngineState {
	st := EngineState{
		Now:    e.now,
		Seq:    e.seq,
		Events: e.nEvent,
		Draws:  e.src.Draws(),
	}
	st.Pending = make([]EventRecord, 0, e.Pending())
	add := func(evs []*event) {
		for _, t := range evs {
			st.Pending = append(st.Pending, EventRecord{At: t.at, Seq: t.seq})
		}
	}
	add(e.q)
	add(e.qa)
	for i := range e.lanes {
		for t := e.lanes[i].head; t != nil; t = t.next {
			if t.idx != idxNone { // skip tombstones
				st.Pending = append(st.Pending, EventRecord{At: t.at, Seq: t.seq})
			}
		}
	}
	sort.Slice(st.Pending, func(i, j int) bool {
		a, b := st.Pending[i], st.Pending[j]
		return a.At < b.At || (a.At == b.At && a.Seq < b.Seq)
	})
	return st
}

// Draws returns the number of values the engine's RNG has consumed.
func (e *Engine) Draws() uint64 { return e.src.Draws() }

// StartJournal begins recording the (At, Seq) key of every executed
// event. Used by checkpoint bisection to name the first diverging event;
// costs one slice append per event while on, nothing while off.
func (e *Engine) StartJournal() {
	e.journalOn = true
	e.journal = e.journal[:0]
}

// TakeJournal returns the events recorded since StartJournal and resets
// the window (recording stays on).
func (e *Engine) TakeJournal() []EventRecord {
	j := e.journal
	e.journal = nil
	return j
}

// RebindFunc reconstructs the callback for one captured pending event.
// Returning false aborts the restore (the caller cannot rebind that
// event) with the engine untouched.
type RebindFunc func(EventRecord) (func(), bool)

// RestoreState rebuilds the engine from a captured state. All-or-nothing:
// the state is validated and the replacement queues are built in scratch
// storage first, and the engine is only mutated after every step has
// succeeded — a failed restore leaves it exactly as it was (FuzzRestoreState
// asserts this).
func (e *Engine) RestoreState(st EngineState, rebind RebindFunc) error {
	// Validate before touching anything.
	var prev EventRecord
	for i, rec := range st.Pending {
		if rec.At < st.Now {
			return fmt.Errorf("sim: restore: pending event %d at %d before clock %d", i, rec.At, st.Now)
		}
		if rec.Seq&arrivalBand == 0 && rec.Seq >= st.Seq {
			return fmt.Errorf("sim: restore: pending event %d seq %d not yet allocated (next seq %d)", i, rec.Seq, st.Seq)
		}
		if i > 0 && !(prev.At < rec.At || (prev.At == rec.At && prev.Seq < rec.Seq)) {
			return fmt.Errorf("sim: restore: pending events not strictly ordered at %d", i)
		}
		prev = rec
	}

	// Build scratch queues. Every band-0 event goes to the residual queue;
	// the delay lanes start empty and fill with the run's new events.
	// Records arrive sorted by (At, Seq); a sorted array is already a valid
	// min-heap, so band assignment is the only work.
	var q, qa []*event
	for _, rec := range st.Pending {
		fn, ok := rebind(rec)
		if !ok {
			return fmt.Errorf("sim: restore: no rebinding for event at=%d seq=%#x", rec.At, rec.Seq)
		}
		t := &event{eng: e, at: rec.At, seq: rec.Seq, fn: fn, idx: -1}
		if rec.Seq&arrivalBand != 0 {
			t.idx = int32(len(qa))
			qa = append(qa, t)
		} else {
			t.idx = int32(len(q))
			q = append(q, t)
		}
	}

	// Commit.
	e.now = st.Now
	e.seq = st.Seq
	e.nEvent = st.Events
	e.q, e.qa = q, qa
	e.resetLanes()
	e.free, e.freeN = nil, 0
	e.src = NewCountingSource(e.seed)
	e.rng = rand.New(e.src)
	e.src.Skip(st.Draws)
	return nil
}

// GroupState is a snapshot of a shard group's barrier counters. The
// engines themselves are captured individually; this is the only state
// the Group adds on top.
type GroupState struct {
	Epochs     uint64
	Dispatched []uint64
	Skipped    []uint64
}

// CaptureState snapshots the group's barrier counters. Only meaningful
// between epochs (when the coordinator owns every engine).
func (g *Group) CaptureState() GroupState {
	return GroupState{
		Epochs:     g.epochs,
		Dispatched: append([]uint64(nil), g.dispatched...),
		Skipped:    append([]uint64(nil), g.skipped...),
	}
}

// CountingSource is a deterministic rand.Source64 that counts how many
// values have been drawn, making the RNG position part of capturable
// state: a restored component reconstructs its source from the same seed
// and Skips to the recorded count. Wrapping does not change the stream —
// both Int63 and Uint64 advance the underlying generator exactly one
// step, as they do unwrapped.
type CountingSource struct {
	src rand.Source64
	n   uint64
}

// NewCountingSource returns a counting source over rand.NewSource(seed).
func NewCountingSource(seed int64) *CountingSource {
	return &CountingSource{src: rand.NewSource(seed).(rand.Source64)}
}

// Int63 draws one value.
func (c *CountingSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

// Uint64 draws one value.
func (c *CountingSource) Uint64() uint64 {
	c.n++
	return c.src.Uint64()
}

// Seed reseeds the underlying source and resets the draw count.
func (c *CountingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.n = 0
}

// Draws returns the number of values drawn so far.
func (c *CountingSource) Draws() uint64 {
	return c.n
}

// Skip advances the stream by n draws (used when restoring to a captured
// position).
func (c *CountingSource) Skip(n uint64) {
	for i := uint64(0); i < n; i++ {
		c.Uint64()
	}
}
