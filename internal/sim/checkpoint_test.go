package sim

import (
	"math/rand"
	"testing"
)

// captureAndRestore snapshots src, restores into dst (rebinding each
// event to append its record to got), and returns the captured state.
func captureAndRestore(t *testing.T, src, dst *Engine, got *[]EventRecord) EngineState {
	t.Helper()
	st := src.CaptureState()
	err := dst.RestoreState(st, func(rec EventRecord) (func(), bool) {
		return func() { *got = append(*got, rec) }, true
	})
	if err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	return st
}

// fillRandom schedules n events over [now, now+spread) on e, returning
// the expected pop order implicitly via the engine's own execution.
func fillRandom(e *Engine, rng *rand.Rand, n int, spread int64) {
	for i := 0; i < n; i++ {
		at := e.Now().Add(Duration(rng.Int63n(spread)))
		e.Schedule(at, func() {})
	}
}

func testRoundTripPopOrder(t *testing.T, fill func(e *Engine)) {
	src := NewEngine(7)
	fill(src)

	st := src.CaptureState()
	if len(st.Pending) != src.Pending() {
		t.Fatalf("captured %d pending records, source has %d live events", len(st.Pending), src.Pending())
	}
	// The capture names exactly what the source itself goes on to run.
	src.StartJournal()
	src.RunAll()
	if ran := src.TakeJournal(); len(ran) != len(st.Pending) {
		t.Fatalf("source ran %d events after capture, captured %d", len(ran), len(st.Pending))
	} else {
		for i, rec := range st.Pending {
			if ran[i] != rec {
				t.Fatalf("source pop %d = %+v, captured %+v", i, ran[i], rec)
			}
		}
	}

	// Pop order after a restore must equal the captured execution order
	// (st.Pending is already sorted into it).
	dst := NewEngine(7)
	var got []EventRecord
	err := dst.RestoreState(st, func(rec EventRecord) (func(), bool) {
		return func() { got = append(got, rec) }, true
	})
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if dst.Now() != st.Now || dst.Pending() != len(st.Pending) {
		t.Fatalf("restore: now=%d pending=%d, want %d/%d", dst.Now(), dst.Pending(), st.Now, len(st.Pending))
	}
	dst.RunAll()
	if len(got) != len(st.Pending) {
		t.Fatalf("restore: popped %d events, want %d", len(got), len(st.Pending))
	}
	for i, rec := range st.Pending {
		if got[i] != rec {
			t.Fatalf("restore: pop %d = %+v, want %+v", i, got[i], rec)
		}
	}
	// The restored engine continues allocating seqs where the source
	// left off.
	if dst.seq != st.Seq {
		t.Fatalf("restore: seq %d, want %d", dst.seq, st.Seq)
	}
}

func TestCaptureRestoreHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	testRoundTripPopOrder(t, func(e *Engine) {
		e.Run(1000)
		fillRandom(e, rng, 500, 50_000)
	})
}

// TestCaptureRestoreDelayLanes round-trips engines whose band-0 events
// sit on delay lanes — recurring relative delays, an arrival-sorted
// absolute trace — next to residual events, with tombstones left by
// cancelled lane heads, middles and tails. Capture must list the live
// events only, and a restore (which rebuilds everything into the
// residual queue) must drain in the captured order.
func TestCaptureRestoreDelayLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	testRoundTripPopOrder(t, func(e *Engine) {
		var timers []Timer
		for at := Time(0); at < 400_000; at += Time(rng.Intn(2_000)) {
			timers = append(timers, e.Schedule(at, func() {}))
		}
		for i := 0; i < 600; i++ {
			timers = append(timers, e.After(recurringDelays[rng.Intn(len(recurringDelays))], func() {}))
			if i%50 == 0 {
				e.Run(e.Now().Add(Duration(rng.Intn(20_000))))
			}
		}
		fillRandom(e, rng, 200, 300_000)
		if e.laneN == 0 || e.lhN < 2 {
			t.Fatalf("setup put %d events on %d lanes", e.laneN, e.lhN)
		}
		tombs := 0
		for i, tm := range timers {
			if !tm.Active() || i%4 != 0 {
				continue
			}
			if ln := laneOf(tm); ln >= 0 && e.lanes[ln].head != tm.ev {
				tombs++
			}
			tm.Cancel()
		}
		if tombs == 0 {
			t.Fatal("no cancellation left a tombstone")
		}
	})
}

func TestCaptureRestoreArrivalBand(t *testing.T) {
	// Band-1 events keep their identity-derived keys through a round
	// trip and still sort after same-instant band-0 events.
	src := NewEngine(5)
	src.Schedule(100, func() {})
	src.ScheduleArrival(100, 7, func(a, b any, i int) {}, nil, nil, 0)
	src.ScheduleArrival(100, 3, func(a, b any, i int) {}, nil, nil, 0)
	src.Schedule(50, func() {})

	st := src.CaptureState()
	want := []EventRecord{
		{At: 50, Seq: 1},
		{At: 100, Seq: 0},
		{At: 100, Seq: arrivalBand | 3},
		{At: 100, Seq: arrivalBand | 7},
	}
	if len(st.Pending) != len(want) {
		t.Fatalf("captured %d events, want %d", len(st.Pending), len(want))
	}
	for i := range want {
		if st.Pending[i] != want[i] {
			t.Fatalf("capture[%d] = %+v, want %+v", i, st.Pending[i], want[i])
		}
	}

	dst := NewEngine(5)
	var got []EventRecord
	captureAndRestore(t, src, dst, &got)
	dst.RunAll()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestCaptureIsPure(t *testing.T) {
	// Capturing must not perturb the run: two identical engines, one
	// captured mid-run repeatedly, drain identically.
	a := NewEngine(9)
	b := NewEngine(9)
	var ta, tb []Time
	rngA, rngB := rand.New(rand.NewSource(8)), rand.New(rand.NewSource(8))
	schedule := func(e *Engine, rng *rand.Rand, out *[]Time) {
		for i := 0; i < 2_000; i++ {
			at := Time(rng.Int63n(1_000_000))
			e.Schedule(at, func() { *out = append(*out, e.Now()) })
		}
	}
	schedule(a, rngA, &ta)
	schedule(b, rngB, &tb)
	for _, horizon := range []Time{100_000, 400_000, 900_000} {
		a.Run(horizon)
		b.Run(horizon)
		_ = a.CaptureState() // a is captured, b is the control
	}
	a.RunAll()
	b.RunAll()
	if len(ta) != len(tb) {
		t.Fatalf("%d vs %d events", len(ta), len(tb))
	}
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("event %d at %d vs %d", i, ta[i], tb[i])
		}
	}
}

func TestRestoreStateRejectsInvalid(t *testing.T) {
	okRebind := func(EventRecord) (func(), bool) { return func() {}, true }
	base := func() (*Engine, EngineState) {
		e := NewEngine(1)
		e.Schedule(10, func() {})
		e.Schedule(20, func() {})
		e.Run(5)
		return NewEngine(1), e.CaptureState()
	}

	t.Run("event before clock", func(t *testing.T) {
		dst, st := base()
		st.Pending[0].At = st.Now - 1
		if err := dst.RestoreState(st, okRebind); err == nil {
			t.Fatal("accepted event before clock")
		}
	})
	t.Run("unallocated seq", func(t *testing.T) {
		dst, st := base()
		st.Pending[1].Seq = st.Seq + 5
		if err := dst.RestoreState(st, okRebind); err == nil {
			t.Fatal("accepted seq beyond allocator")
		}
	})
	t.Run("unordered", func(t *testing.T) {
		dst, st := base()
		st.Pending[0], st.Pending[1] = st.Pending[1], st.Pending[0]
		if err := dst.RestoreState(st, okRebind); err == nil {
			t.Fatal("accepted unsorted pending list")
		}
	})
	t.Run("rebind refusal leaves engine untouched", func(t *testing.T) {
		dst, st := base()
		dst.Schedule(99, func() {})
		before := dst.CaptureState()
		err := dst.RestoreState(st, func(rec EventRecord) (func(), bool) {
			return nil, rec.Seq == 0 // refuse the second event
		})
		if err == nil {
			t.Fatal("accepted refused rebinding")
		}
		after := dst.CaptureState()
		if len(after.Pending) != len(before.Pending) || after.Now != before.Now || after.Seq != before.Seq {
			t.Fatalf("failed restore mutated engine: %+v -> %+v", before, after)
		}
	})
}

// FuzzRestoreState drives arbitrary states through RestoreState: it must
// either succeed (and then drain in exactly the stated order) or reject
// with the target engine left byte-for-byte as it was.
func FuzzRestoreState(f *testing.F) {
	f.Add(int64(1), uint64(3), []byte{1, 0, 2, 0, 3, 1})
	f.Add(int64(50), uint64(0), []byte{})
	f.Add(int64(0), uint64(2), []byte{5, 0, 5, 0})
	f.Fuzz(func(t *testing.T, now int64, seq uint64, raw []byte) {
		st := EngineState{Now: Time(now), Seq: seq}
		for i := 0; i+1 < len(raw); i += 2 {
			rec := EventRecord{At: Time(now) + Time(raw[i]), Seq: uint64(raw[i+1])}
			if raw[i+1]&0x80 != 0 {
				rec.Seq = arrivalBand | uint64(raw[i+1]&0x7f)
			}
			st.Pending = append(st.Pending, rec)
		}
		dst := NewEngine(2)
		dst.Schedule(Time(now)+1_000_000, func() {})
		dst.Run(Time(now) / 2)
		before := dst.CaptureState()
		var got []EventRecord
		err := dst.RestoreState(st, func(rec EventRecord) (func(), bool) {
			return func() { got = append(got, rec) }, true
		})
		if err != nil {
			after := dst.CaptureState()
			if after.Now != before.Now || after.Seq != before.Seq || len(after.Pending) != len(before.Pending) {
				t.Fatal("failed restore mutated engine")
			}
			return
		}
		dst.RunAll()
		if len(got) != len(st.Pending) {
			t.Fatalf("drained %d events, want %d", len(got), len(st.Pending))
		}
		for i, rec := range st.Pending {
			if got[i] != rec {
				t.Fatalf("pop %d = %+v, want %+v", i, got[i], rec)
			}
		}
	})
}

func TestCountingSourceStreamIdentity(t *testing.T) {
	// Wrapping must not change the stream rand.Rand produces.
	plain := rand.New(rand.NewSource(42))
	counted := rand.New(NewCountingSource(42))
	for i := 0; i < 1_000; i++ {
		if a, b := plain.Int63(), counted.Int63(); a != b {
			t.Fatalf("Int63 %d: %d vs %d", i, a, b)
		}
	}
	if a, b := plain.Float64(), counted.Float64(); a != b {
		t.Fatalf("Float64: %v vs %v", a, b)
	}
	if a, b := plain.Intn(97), counted.Intn(97); a != b {
		t.Fatalf("Intn: %d vs %d", a, b)
	}
}

func TestCountingSourceSkip(t *testing.T) {
	a := NewCountingSource(7)
	r := rand.New(a)
	for i := 0; i < 137; i++ {
		r.Int63()
	}
	n := a.Draws()
	next := r.Int63()

	b := NewCountingSource(7)
	b.Skip(n)
	if b.Draws() != n {
		t.Fatalf("Draws after Skip = %d, want %d", b.Draws(), n)
	}
	if got := rand.New(b).Int63(); got != next {
		t.Fatalf("post-skip draw %d, want %d", got, next)
	}
}

func TestJournal(t *testing.T) {
	e := NewEngine(3)
	e.Schedule(10, func() {})
	e.Schedule(10, func() {})
	e.Schedule(30, func() {})
	e.Run(20) // two events before the journal starts... none recorded
	if j := e.TakeJournal(); len(j) != 0 {
		t.Fatalf("journal recorded %d events while off", len(j))
	}
	e.StartJournal()
	e.Schedule(40, func() {})
	e.RunAll()
	j := e.TakeJournal()
	want := []EventRecord{{At: 30, Seq: 2}, {At: 40, Seq: 3}}
	if len(j) != len(want) {
		t.Fatalf("journal has %d events, want %d", len(j), len(want))
	}
	for i := range want {
		if j[i] != want[i] {
			t.Fatalf("journal[%d] = %+v, want %+v", i, j[i], want[i])
		}
	}
	// TakeJournal resets the window but keeps recording.
	e.Schedule(50, func() {})
	e.RunAll()
	if j := e.TakeJournal(); len(j) != 1 || j[0] != (EventRecord{At: 50, Seq: 4}) {
		t.Fatalf("second window = %+v", j)
	}
}

func TestGroupCaptureState(t *testing.T) {
	engines := []*Engine{NewEngine(1), NewEngine(2)}
	engines[0].Schedule(10, func() {})
	g := NewGroup(engines)
	defer g.Close()
	g.RunEpoch(100)
	g.RunEpoch(200)
	st := g.CaptureState()
	if st.Epochs != 2 || len(st.Dispatched) != 2 || len(st.Skipped) != 2 {
		t.Fatalf("group state = %+v", st)
	}
	if st.Dispatched[0] != 2 || st.Skipped[1] != 2 {
		t.Fatalf("counters = %+v", st)
	}
	st.Dispatched[0] = 99 // must be a copy
	if g.Dispatched(0) == 99 {
		t.Fatal("CaptureState aliased group counters")
	}
}
