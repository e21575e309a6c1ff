package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// Scripted schedules and a reference queue: the execution-order oracle
// behind TestQueueDisciplineEquivalence and FuzzEngineOrder. A script is
// a list of scheduling, cancellation, stepping and checking operations
// issued from outside any callback, so the reference can replay it with
// nothing but a sorted (at, seq) model of the engine's contract: band-0
// events take the next sequence number, band-1 events take
// arrivalBand|key, and the earliest (at, seq) always runs next. The
// engine — its delay lanes, residual heap and arrival heap together —
// must match it event for event.

type scriptKind uint8

const (
	opAfter   scriptKind = iota // After(delay)
	opAbs                       // Schedule(now + at): any order
	opAbsNext                   // Schedule at a cursor advanced by delay: arrival-sorted
	opArrival                   // ScheduleArrival(now+delay, key)
	opCancel                    // cancel one earlier band-0 timer, chosen by victim
	opStep                      // n Steps
	opCheck                     // compare live state against the reference
	opRun                       // Run(now + delay)
)

// Cancellation targets: the most recent timer (a lane tail), the oldest
// still-active one (usually a lane head), or a random one (mostly lane
// middles).
const (
	victimRandom = iota
	victimNewest
	victimOldest
)

type scriptOp struct {
	kind   scriptKind
	delay  Duration // opAfter, opAbsNext, opArrival, opRun
	at     Time     // opAbs: offset from now
	key    uint64   // opArrival
	victim int      // opCancel: victimRandom/Newest/Oldest
	pick   int      // opCancel with victimRandom: index seed
	n      int      // opStep
	tag    int
}

// pickVictim resolves a cancellation against a timer list whose
// per-timer activity is reported by active; it returns -1 when there is
// nothing to cancel. The engine and the reference resolve identically
// when they agree on which timers are still pending.
func pickVictim(o scriptOp, n int, active func(int) bool) int {
	if n == 0 {
		return -1
	}
	switch o.victim {
	case victimNewest:
		return n - 1
	case victimOldest:
		for i := 0; i < n; i++ {
			if active(i) {
				return i
			}
		}
		return -1
	default:
		return o.pick % n
	}
}

// engineRun replays a script on one engine, logging execution as
// "at/tag" strings.
type engineRun struct {
	eng    *Engine
	order  []string
	timers []Timer
	cursor Time // opAbsNext's last absolute time
}

func logTag(a, _ any, i int) {
	r := a.(*engineRun)
	r.order = append(r.order, fmt.Sprintf("%d/%d", r.eng.Now(), i))
}

func (r *engineRun) apply(o scriptOp) {
	e := r.eng
	switch o.kind {
	case opAfter:
		r.timers = append(r.timers, e.AfterFunc(o.delay, logTag, r, nil, o.tag))
	case opAbs:
		r.timers = append(r.timers, e.ScheduleFunc(e.Now().Add(Duration(o.at)), logTag, r, nil, o.tag))
	case opAbsNext:
		r.cursor = nextCursor(r.cursor, e.Now(), o.delay)
		r.timers = append(r.timers, e.ScheduleFunc(r.cursor, logTag, r, nil, o.tag))
	case opArrival:
		e.ScheduleArrival(e.Now().Add(o.delay), o.key, logTag, r, nil, o.tag)
	case opCancel:
		if i := pickVictim(o, len(r.timers), func(i int) bool { return r.timers[i].Active() }); i >= 0 {
			r.timers[i].Cancel()
		}
	case opStep:
		for k := 0; k < o.n; k++ {
			e.Step()
		}
	case opRun:
		e.Run(e.Now().Add(o.delay))
	}
}

// nextCursor advances an arrival-sorted absolute schedule by d, never
// from behind the clock.
func nextCursor(cursor, now Time, d Duration) Time {
	if cursor < now {
		cursor = now
	}
	return cursor.Add(d)
}

// refEvent is one event in the reference queue.
type refEvent struct {
	at   Time
	seq  uint64
	tag  int
	done bool // fired or cancelled
}

// refQueue is the reference model: an unsorted pending set searched for
// its (at, seq) minimum on every step.
type refQueue struct {
	now     Time
	seq     uint64
	events  uint64
	pending []*refEvent
	timers  []*refEvent
	order   []string
	cursor  Time
}

func (q *refQueue) add(at Time, seq uint64, tag int) *refEvent {
	ev := &refEvent{at: at, seq: seq, tag: tag}
	q.pending = append(q.pending, ev)
	return ev
}

// step runs the earliest pending event if it is stamped at or before
// until.
func (q *refQueue) step(until Time) bool {
	if len(q.pending) == 0 {
		return false
	}
	m := 0
	for i, ev := range q.pending {
		if ev.at < q.pending[m].at || (ev.at == q.pending[m].at && ev.seq < q.pending[m].seq) {
			m = i
		}
	}
	ev := q.pending[m]
	if ev.at > until {
		return false
	}
	q.pending = append(q.pending[:m], q.pending[m+1:]...)
	ev.done = true
	q.now = ev.at
	q.events++
	q.order = append(q.order, fmt.Sprintf("%d/%d", ev.at, ev.tag))
	return true
}

func (q *refQueue) apply(o scriptOp) {
	switch o.kind {
	case opAfter:
		q.timers = append(q.timers, q.add(q.now.Add(o.delay), q.seq, o.tag))
		q.seq++
	case opAbs:
		q.timers = append(q.timers, q.add(q.now.Add(Duration(o.at)), q.seq, o.tag))
		q.seq++
	case opAbsNext:
		q.cursor = nextCursor(q.cursor, q.now, o.delay)
		q.timers = append(q.timers, q.add(q.cursor, q.seq, o.tag))
		q.seq++
	case opArrival:
		q.add(q.now.Add(o.delay), arrivalBand|o.key, o.tag)
	case opCancel:
		i := pickVictim(o, len(q.timers), func(i int) bool { return !q.timers[i].done })
		if i < 0 || q.timers[i].done {
			return
		}
		ev := q.timers[i]
		ev.done = true
		for k, p := range q.pending {
			if p == ev {
				q.pending = append(q.pending[:k], q.pending[k+1:]...)
				break
			}
		}
	case opStep:
		for k := 0; k < o.n; k++ {
			q.step(timeMax)
		}
	case opRun:
		until := q.now.Add(o.delay)
		for q.step(until) {
		}
		q.now = until
	}
}

// state is the EngineState a correct engine with this history captures.
func (q *refQueue) state() EngineState {
	st := EngineState{Now: q.now, Seq: q.seq, Events: q.events, Pending: []EventRecord{}}
	for _, ev := range q.pending {
		st.Pending = append(st.Pending, EventRecord{At: ev.at, Seq: ev.seq})
	}
	sort.Slice(st.Pending, func(i, j int) bool {
		a, b := st.Pending[i], st.Pending[j]
		return a.At < b.At || (a.At == b.At && a.Seq < b.Seq)
	})
	return st
}

// checkScript replays ops through the reference and through an engine
// in lockstep. At every opCheck it asserts live-only Pending and a
// CaptureState equal to the reference's; at the end, identical execution
// orders.
func checkScript(t *testing.T, name string, ops []scriptOp) {
	t.Helper()
	ref := &refQueue{}
	r := &engineRun{eng: NewEngine(7)}
	for i, o := range ops {
		ref.apply(o)
		r.apply(o)
		if o.kind != opCheck {
			continue
		}
		want := ref.state()
		if got := r.eng.Pending(); got != len(want.Pending) {
			t.Fatalf("%s: op %d: engine Pending() = %d, reference holds %d live events",
				name, i, got, len(want.Pending))
		}
		if got := r.eng.CaptureState(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: op %d: engine captured\n%+v\nreference\n%+v", name, i, got, want)
		}
	}
	for ref.step(timeMax) {
	}
	r.eng.RunAll()
	if len(r.order) != len(ref.order) {
		t.Fatalf("%s: engine ran %d events, reference %d", name, len(r.order), len(ref.order))
	}
	for i := range ref.order {
		if r.order[i] != ref.order[i] {
			t.Fatalf("%s: engine diverges from the reference at event %d: %s, want %s",
				name, i, r.order[i], ref.order[i])
		}
	}
	if r.eng.Pending() != 0 {
		t.Fatalf("%s: engine drained with Pending() = %d", name, r.eng.Pending())
	}
}

// TestQueueDisciplineEquivalence is the property test behind the
// engine's order claim: identical randomized scripts executed through
// the engine — delay lanes in front of the residual heap and the band-1
// arrival heap — and through the sorted (at, seq) reference queue
// produce the identical execution order. The scripts mix recurring
// delays that bind lanes, more distinct recurring delays than the lane
// table holds (forcing rebinding), random delays from nanoseconds to
// fractions of a second, absolute schedules in sorted and unsorted
// order, band-1 arrivals with same-instant ties, cancellation of lane
// heads, middles and tails, and Step bursts; at random points live-only
// Pending() and the captured EngineState must match the reference.
func TestQueueDisciplineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		checkScript(t, fmt.Sprintf("trial %d", trial), randomScript(rng, 200+rng.Intn(1600)))
	}
}

// recurringDelays stand in for a fabric's host, switch, serialization and
// propagation delays: few values, each pushed over and over, so each
// binds a lane.
var recurringDelays = []Duration{0, 1_280, 5_120, 120_000, 120_000 + 5_120, 1_000_000, 2_500_000, 3_000_000}

// randomScript builds a randomized script mixing every way an event can
// enter the engine and leave it.
func randomScript(rng *rand.Rand, n int) []scriptOp {
	ops := make([]scriptOp, 0, n)
	arrKeys := map[uint64]bool{}
	// Many distinct recurring delays — more than the lane table holds —
	// so slots are contended and rebound as lanes drain.
	distinct := make([]Duration, 3*laneSlots)
	for i := range distinct {
		distinct[i] = Duration(7_000 + 977*i)
	}
	for i := 0; i < n; i++ {
		o := scriptOp{tag: i}
		switch rng.Intn(20) {
		case 0, 1: // cancellation: lane heads, middles and tails
			o.kind = opCancel
			o.victim = rng.Intn(3)
			o.pick = rng.Intn(1 << 20)
		case 2, 3: // band-1 arrival with a unique identity key
			o.kind = opArrival
			for {
				o.key = uint64(rng.Intn(1 << 30))
				if !arrKeys[o.key] {
					arrKeys[o.key] = true
					break
				}
			}
			o.delay = Duration(rng.Intn(2000))
		case 4, 5: // absolute schedule, arrival-sorted: the absolute lane
			o.kind = opAbsNext
			o.delay = Duration(rng.Intn(3_000))
		case 6: // absolute schedule, unsorted: mostly the residual queue
			o.kind = opAbs
			o.at = Time(rng.Intn(5_000_000))
		case 7:
			o.kind = opStep
			o.n = 1 + rng.Intn(8)
			if rng.Intn(3) == 0 {
				o.kind = opRun
				o.delay = Duration(rng.Intn(200_000))
			}
		case 8:
			o.kind = opCheck
		case 9, 10, 11, 12: // recurring delays: lanes
			o.kind = opAfter
			o.delay = recurringDelays[rng.Intn(len(recurringDelays))]
		case 13, 14: // contended recurring delays: binding and rebinding
			o.kind = opAfter
			o.delay = distinct[rng.Intn(len(distinct))]
		default:
			// Random delays across many decades: they never bind a
			// lane and fill the residual heap.
			o.kind = opAfter
			switch rng.Intn(4) {
			case 0:
				o.delay = Duration(rng.Intn(64))
			case 1:
				o.delay = Duration(rng.Intn(100_000))
			case 2:
				o.delay = Duration(1_000_000 + rng.Intn(10_000_000))
			default:
				o.delay = Duration(100_000_000 + rng.Int63n(100_000_000_000))
			}
		}
		ops = append(ops, o)
	}
	return ops
}

// decodeScript turns fuzz bytes into a script, three bytes per op.
func decodeScript(data []byte) []scriptOp {
	var ops []scriptOp
	key := uint64(0)
	for i := 0; len(data) >= 3; i++ {
		b0, b1, b2 := data[0], data[1], data[2]
		data = data[3:]
		o := scriptOp{tag: i}
		switch b0 % 9 {
		case 0, 1:
			o.kind = opAfter
			o.delay = recurringDelays[int(b1)%len(recurringDelays)]
		case 8:
			o.kind = opAbsNext
			o.delay = Duration(b1) * Duration(b2)
		case 2:
			o.kind = opAfter
			o.delay = Duration(b1)<<12 | Duration(b2)
		case 3:
			o.kind = opAbs
			o.at = Time(b1) << (b2 % 24)
		case 4:
			o.kind = opArrival
			key++
			o.key = key
			o.delay = Duration(b1) * Duration(1+b2%8)
		case 5:
			o.kind = opCancel
			o.victim = int(b1 % 3)
			o.pick = int(b2)
		case 6:
			o.kind = opStep
			o.n = int(b1 % 16)
			if b2&1 != 0 {
				o.kind = opRun
				o.delay = Duration(b1) * Duration(b2)
			}
		default:
			o.kind = opAfter // distinct delays: lane contention and rebinding
			o.delay = Duration(b1)*1_000 + Duration(b2%4)
		}
		ops = append(ops, o)
	}
	return ops
}

// FuzzEngineOrder checks arbitrary scripts — After with recurring and
// random delays, absolute Schedule in any order, ScheduleArrival, Cancel
// of lane heads, middles and tails, Step bursts and Run horizons —
// against the reference queue.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 1, 0, 5, 0, 0, 6, 3, 0, 1, 2, 0})
	f.Add([]byte{3, 9, 4, 3, 1, 2, 4, 5, 0, 5, 1, 0, 5, 2, 7, 6, 15, 0})
	f.Add([]byte{7, 3, 1, 7, 3, 1, 7, 200, 2, 2, 255, 255, 5, 0, 3, 6, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeScript(data)
		// A check after every op: the fuzzer explores states, so assert
		// live state at each of them, not just the final order.
		checked := make([]scriptOp, 0, 2*len(ops))
		for _, o := range ops {
			checked = append(checked, o, scriptOp{kind: opCheck})
		}
		checkScript(t, "fuzz", checked)
	})
}
