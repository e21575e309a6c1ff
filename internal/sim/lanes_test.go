package sim

import "testing"

// laneOf reports which delay lane holds tm's event, or -1 when it sits
// in the residual queue.
func laneOf(tm Timer) int {
	if tm.ev.idx <= idxLane0 {
		return idxLane0 - int(tm.ev.idx)
	}
	return -1
}

// laneLen counts every event linked into lane ln, tombstones included.
func laneLen(e *Engine, ln int) int {
	n := 0
	for t := e.lanes[ln].head; t != nil; t = t.next {
		n++
	}
	return n
}

func nopArgs(a, b any, i int) {}

// TestDelayLaneBindsOnRecurrence: a delay's first push only makes it a
// binding candidate; the second binds a lane, and later pushes follow.
// Execution order is unaffected by the first event sitting elsewhere.
func TestDelayLaneBindsOnRecurrence(t *testing.T) {
	e := NewEngine(1)
	const d = 120_000
	var ran []int
	log := func(a, b any, i int) { ran = append(ran, i) }
	first := e.AfterFunc(d, log, nil, nil, 0)
	if ln := laneOf(first); ln >= 0 {
		t.Fatalf("first push of a delay went to lane %d, want the residual queue", ln)
	}
	second := e.AfterFunc(d, log, nil, nil, 1)
	ln := laneOf(second)
	if ln < 0 || e.delays[ln] != d {
		t.Fatalf("recurring delay did not bind a lane (lane %d)", ln)
	}
	if third := e.AfterFunc(d, log, nil, nil, 2); laneOf(third) != ln {
		t.Fatalf("third push went to lane %d, want %d", laneOf(third), ln)
	}
	if e.Pending() != 3 || len(e.q) != 1 || e.laneN != 2 {
		t.Fatalf("pending %d (residual %d, lanes %d), want 3 (1, 2)", e.Pending(), len(e.q), e.laneN)
	}
	e.RunAll()
	if len(ran) != 3 || ran[0] != 0 || ran[1] != 1 || ran[2] != 2 {
		t.Fatalf("ran %v, want [0 1 2]", ran)
	}
}

// TestDelayLaneRandomDelaysStayResidual: delays that never recur never
// bind a lane; they cost one probe and go to the residual queue.
func TestDelayLaneRandomDelaysStayResidual(t *testing.T) {
	e := NewEngine(1)
	const n = 2000
	for i := 0; i < n; i++ {
		e.AfterFunc(Duration(1+(i*7919)%100_003), nopArgs, nil, nil, i)
	}
	if e.laneN != 0 || e.lhN != 0 {
		t.Fatalf("distinct delays put %d events on %d lanes", e.laneN, e.lhN)
	}
	if e.Pending() != n {
		t.Fatalf("pending %d, want %d", e.Pending(), n)
	}
}

// TestDelayLaneRebinding: a delay whose probed slots are both bound to
// other, busy delays stays residual; once those lanes drain, it claims a
// slot of its own.
func TestDelayLaneRebinding(t *testing.T) {
	// Three delays sharing one probe pair.
	var ds []Duration
	pair := laneIndex(1_000) >> 1
	for d := Duration(1_000); len(ds) < 3; d++ {
		if laneIndex(d)>>1 == pair {
			ds = append(ds, d)
		}
	}
	e := NewEngine(1)
	for _, d := range ds[:2] {
		e.AfterFunc(d, nopArgs, nil, nil, 0)
		if laneOf(e.AfterFunc(d, nopArgs, nil, nil, 0)) < 0 {
			t.Fatalf("delay %d did not bind", d)
		}
	}
	for i := 0; i < 10; i++ {
		if ln := laneOf(e.AfterFunc(ds[2], nopArgs, nil, nil, 0)); ln >= 0 {
			t.Fatalf("delay %d took lane %d while both its slots were busy", ds[2], ln)
		}
	}
	e.RunAll()
	e.AfterFunc(ds[2], nopArgs, nil, nil, 0)
	ln := laneOf(e.AfterFunc(ds[2], nopArgs, nil, nil, 0))
	if ln < 0 || ln>>1 != pair || e.delays[ln] != ds[2] {
		t.Fatalf("delay %d did not rebind a drained slot of its pair (lane %d)", ds[2], ln)
	}
}

// TestDelayLaneTombstones walks a lane through cancellation of its
// middle, tail and head: Pending and CaptureState stay live-only, the
// handles go inert at once, a cancelled head leaves immediately, and
// tombstones are recycled when they reach the head.
func TestDelayLaneTombstones(t *testing.T) {
	e := NewEngine(1)
	const d = 5_000
	e.AfterFunc(d, nopArgs, nil, nil, -1) // binding candidate, residual
	var ran []int
	log := func(a, b any, i int) { ran = append(ran, i) }
	var tm []Timer
	for i := 0; i < 6; i++ {
		tm = append(tm, e.AfterFunc(d, log, nil, nil, i))
	}
	ln := laneOf(tm[0])
	if ln < 0 || laneLen(e, ln) != 6 {
		t.Fatalf("setup: lane %d holds %d events", ln, laneLen(e, ln))
	}

	tm[2].Cancel() // middle
	tm[5].Cancel() // tail
	if tm[2].Active() || tm[5].Active() {
		t.Fatal("cancelled lane timers still active")
	}
	if laneLen(e, ln) != 6 || e.Pending() != 5 {
		t.Fatalf("after middle+tail cancel: lane holds %d (want 6 with tombstones), pending %d (want 5)",
			laneLen(e, ln), e.Pending())
	}
	// A new event still appends after a tombstoned tail.
	tm = append(tm, e.AfterFunc(d, log, nil, nil, 6))
	if laneOf(tm[6]) != ln {
		t.Fatalf("append after tombstoned tail went to lane %d", laneOf(tm[6]))
	}
	tm[0].Cancel() // head: leaves at once
	if laneLen(e, ln) != 6 || e.lanes[ln].head != tm[1].ev {
		t.Fatalf("head cancel: lane holds %d, head is not the next event", laneLen(e, ln))
	}
	st := e.CaptureState()
	if len(st.Pending) != e.Pending() || e.Pending() != 5 {
		t.Fatalf("capture holds %d records, Pending() %d, want 5 live", len(st.Pending), e.Pending())
	}

	tombs := []*event{tm[2].ev, tm[5].ev}
	e.RunAll()
	if len(ran) != 4 || ran[0] != 1 || ran[1] != 3 || ran[2] != 4 || ran[3] != 6 {
		t.Fatalf("ran %v, want [1 3 4 6]", ran)
	}
	if e.laneN != 0 || e.lhN != 0 || e.lanes[ln].head != nil || e.lanes[ln].tail != nil {
		t.Fatal("drained engine still holds lane state")
	}
	for _, tb := range tombs {
		found := false
		for f := e.free; f != nil; f = f.next {
			found = found || f == tb
		}
		if !found {
			t.Fatal("tombstone was not recycled onto the free list")
		}
	}
}

// TestAbsoluteLaneSortedTrace: arrival-sorted absolute schedules (ties
// included) all take the absolute lane; one out of order goes to the
// residual queue and still runs in (at, seq) order.
func TestAbsoluteLaneSortedTrace(t *testing.T) {
	e := NewEngine(1)
	var ran []Time
	for i := 0; i < 100; i++ {
		at := Time(1_000 + 10*(i/2))
		if tm := e.Schedule(at, func() { ran = append(ran, e.Now()) }); laneOf(tm) != laneAbs {
			t.Fatalf("sorted schedule %d went to lane %d", i, laneOf(tm))
		}
	}
	if tm := e.Schedule(1_005, func() { ran = append(ran, e.Now()) }); laneOf(tm) >= 0 {
		t.Fatalf("out-of-order schedule went to lane %d", laneOf(tm))
	}
	e.RunAll()
	if len(ran) != 101 {
		t.Fatalf("ran %d events", len(ran))
	}
	for i := 1; i < len(ran); i++ {
		if ran[i] < ran[i-1] {
			t.Fatalf("out of order at %d: %d after %d", i, ran[i], ran[i-1])
		}
	}
}
