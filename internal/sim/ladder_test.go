package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestQueueDisciplineEquivalence is the property test behind the queue
// disciplines' correctness claim, three ways: identical randomized
// scripts executed through the 4-ary heap and the ladder queue — each
// behind its delay lanes — and through the sorted (at, seq) reference
// queue produce the identical execution order. The scripts mix recurring
// delays that bind lanes, more distinct recurring delays than the lane
// table holds (forcing rebinding), random delays across every ladder
// tier, absolute schedules in sorted and unsorted order, band-1 arrivals
// with same-instant ties, cancellation of lane heads, middles and tails,
// and Step bursts; at random points live-only Pending() and the captured
// EngineState must match across disciplines and the reference.
func TestQueueDisciplineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		checkScript(t, fmt.Sprintf("trial %d", trial), randomScript(rng, 200+rng.Intn(1600)))
	}
}

// TestLadderUpperRungs exercises the far-future tier that replaced the
// overflow slice: pushes spanning many decades of future time must grow
// geometrically coarser upper rungs (never one linear slice), and the
// drain must return everything in (at, seq) order.
func TestLadderUpperRungs(t *testing.T) {
	for _, count := range []int{128, 4096} {
		e := NewEngineQueue(1, QueueLadder)
		rng := rand.New(rand.NewSource(int64(count)))
		for i := 0; i < count; i++ {
			// Exponentially distributed horizons: every push decade from
			// ~1 µs to ~100 s of simulated time, so coverage needs several
			// ×ladBuckets rung spans.
			at := Time(1_000_000) << rng.Intn(24)
			at += Time(rng.Intn(1_000_000))
			e.Schedule(at, func() {})
		}
		lad := e.lad
		if lad == nil {
			t.Fatal("ladder discipline not active")
		}
		if len(lad.segs) < 2 {
			t.Fatalf("count %d: want multiple upper rungs, got %d", count, len(lad.segs))
		}
		// Rung spans must tile the future contiguously and widen toward
		// the tail (the geometric growth that bounds the rung count).
		for i := 1; i < len(lad.segs); i++ {
			prev, s := lad.segs[i-1], lad.segs[i]
			if s.start != prev.limit {
				t.Fatalf("count %d: rung %d starts at %d, previous limit %d", count, i, s.start, prev.limit)
			}
			if s.width < prev.width {
				t.Fatalf("count %d: rung %d width %d narrower than rung %d width %d",
					count, i, s.width, i-1, prev.width)
			}
		}
		var got []Time
		for e.Step() {
			got = append(got, e.Now())
		}
		if len(got) != count {
			t.Fatalf("count %d: ran %d events", count, len(got))
		}
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				t.Fatalf("count %d: out of order at %d: %d after %d", count, i, got[i], got[i-1])
			}
		}
	}
}

// TestLadderUpperRungSpawn packs one upper-rung bucket densely enough
// that draining it must spawn a finer child rung (not heapify it whole),
// and checks order plus FIFO ties survive, like TestLadderSpawn does for
// the near tier.
func TestLadderUpperRungSpawn(t *testing.T) {
	e := NewEngineQueue(1, QueueLadder)
	rng := rand.New(rand.NewSource(11))
	// A spacer beyond everything keeps the dense cluster inside one coarse
	// bucket of a wide upper rung.
	e.Schedule(1_000_000_000_000, func() {})
	n := ladSpawnMin * 3
	type stamp struct {
		at  Time
		tag int
	}
	var got []stamp
	for i := 0; i < n; i++ {
		tag := i
		at := Time(600_000_000_000 + rng.Intn(2_000_000))
		e.Schedule(at, func() { got = append(got, stamp{e.Now(), tag}) })
	}
	e.RunAll()
	if len(got) != n {
		t.Fatalf("ran %d of %d events", len(got), n)
	}
	byAt := map[Time]int{}
	for i := 1; i < len(got); i++ {
		if got[i].at < got[i-1].at {
			t.Fatalf("out of order at %d", i)
		}
	}
	for _, s := range got {
		if prev, ok := byAt[s.at]; ok && s.tag < prev {
			t.Fatalf("FIFO tie-break violated at t=%d: tag %d after %d", s.at, s.tag, prev)
		}
		byAt[s.at] = s.tag
	}
}

// TestLadderUpperRungCancel cancels timers parked across several upper
// rungs (plus the near tiers) and verifies the survivors run in order
// with the right total — the O(1) swap-delete must work in grown rungs
// exactly as in spawned ones.
func TestLadderUpperRungCancel(t *testing.T) {
	e := NewEngineQueue(1, QueueLadder)
	rng := rand.New(rand.NewSource(13))
	var timers []Timer
	total := 4000
	for i := 0; i < total; i++ {
		at := Time(1_000) << rng.Intn(30)
		tm := e.Schedule(at+Time(rng.Intn(1000)), func() {})
		if i%2 == 0 {
			timers = append(timers, tm)
		}
	}
	if e.lad == nil || len(e.lad.segs) < 2 {
		t.Fatalf("schedule did not populate multiple rungs")
	}
	canceled := 0
	for _, tm := range timers {
		if tm.Active() {
			tm.Cancel()
			canceled++
		}
	}
	if canceled == 0 {
		t.Fatal("no cancellations exercised")
	}
	ran := 0
	last := Time(-1)
	for e.Step() {
		if e.Now() < last {
			t.Fatalf("out of order after cancellations: %d after %d", e.Now(), last)
		}
		last = e.Now()
		ran++
	}
	if ran+canceled != total {
		t.Fatalf("events ran+cancelled = %d, want %d", ran+canceled, total)
	}
}

// TestLadderUpperRungCheckpoint round-trips an engine whose ladder holds
// events across multiple upper rungs through CaptureState/RestoreState:
// the restored engine must execute the identical schedule.
func TestLadderUpperRungCheckpoint(t *testing.T) {
	src := NewEngineQueue(5, QueueLadder)
	rng := rand.New(rand.NewSource(17))
	n := 3000
	for i := 0; i < n; i++ {
		at := Time(1_000) << rng.Intn(28)
		src.Schedule(at+Time(rng.Intn(4096)), func() {})
	}
	// Advance the drain front so the capture sees active, near-rung, and
	// upper-rung events at once.
	for i := 0; i < 200; i++ {
		src.Step()
	}
	if src.lad == nil || len(src.lad.segs) < 2 {
		t.Fatal("capture point does not span multiple rungs")
	}
	st := src.CaptureState()

	var wantOrder, gotOrder []Time
	for src.Step() {
		wantOrder = append(wantOrder, src.Now())
	}
	dst := NewEngineQueue(5, QueueLadder)
	err := dst.RestoreState(st, func(rec EventRecord) (func(), bool) {
		return func() {}, true
	})
	if err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	for dst.Step() {
		gotOrder = append(gotOrder, dst.Now())
	}
	if len(gotOrder) != len(wantOrder) {
		t.Fatalf("restored engine ran %d events, source ran %d", len(gotOrder), len(wantOrder))
	}
	for i := range wantOrder {
		if wantOrder[i] != gotOrder[i] {
			t.Fatalf("execution diverges at %d: src %d, restored %d", i, wantOrder[i], gotOrder[i])
		}
	}
}

// TestLadderSpawn drives a burst dense enough to trigger rung spawning
// (one bucket holding > ladSpawnMin events) and checks order plus FIFO
// tie-breaks survive the re-bucketing.
func TestLadderSpawn(t *testing.T) {
	e := NewEngineQueue(1, QueueLadder)
	rng := rand.New(rand.NewSource(3))
	n := ladSpawnMin * 4
	type stamp struct {
		at  Time
		tag int
	}
	var got []stamp
	// A far spacer first so the dense burst lands in one coarse bucket of
	// the re-bucketed overflow segment.
	e.Schedule(100_000_000, func() {})
	for i := 0; i < n; i++ {
		tag := i
		at := Time(1_000_000 + rng.Intn(1000))
		e.Schedule(at, func() { got = append(got, stamp{e.Now(), tag}) })
	}
	e.RunAll()
	if len(got) != n {
		t.Fatalf("ran %d of %d events", len(got), n)
	}
	byAt := map[Time]int{}
	for i := 1; i < len(got); i++ {
		if got[i].at < got[i-1].at {
			t.Fatalf("out of order at %d", i)
		}
	}
	for _, s := range got {
		if prev, ok := byAt[s.at]; ok && s.tag < prev {
			t.Fatalf("FIFO tie-break violated at t=%d: tag %d after %d", s.at, s.tag, prev)
		}
		byAt[s.at] = s.tag
	}
}

// TestLadderCancel checks O(1) bucket cancellation across tiers: cancel
// events sitting in the active heap, in segment buckets, and in the
// overflow, then verify the survivors run in order.
func TestLadderCancel(t *testing.T) {
	e := NewEngineQueue(1, QueueLadder)
	rng := rand.New(rand.NewSource(9))
	var timers []Timer
	var want []Time
	for i := 0; i < 5000; i++ {
		at := Time(rng.Intn(20_000_000))
		tm := e.Schedule(at, func() {})
		if i%3 == 0 {
			timers = append(timers, tm)
		} else {
			want = append(want, at)
		}
	}
	// Force the drain front forward so cancellations hit the active heap
	// too, then cancel every held timer that has not fired yet.
	for i := 0; i < 100; i++ {
		e.Step()
	}
	canceled := 0
	for _, tm := range timers {
		if tm.Active() {
			tm.Cancel()
			canceled++
		}
	}
	if canceled == 0 {
		t.Fatal("no cancellations exercised")
	}
	rest := 0
	last := Time(-1)
	for e.Step() {
		if e.Now() < last {
			t.Fatalf("out of order after cancellations: %d after %d", e.Now(), last)
		}
		last = e.Now()
		rest++
	}
	if total := 100 + rest + canceled; total != 5000 {
		t.Fatalf("events ran+cancelled = %d, want 5000", total)
	}
}

// TestEngineFreeListCap verifies the free-list bound: after a burst far
// above maxFreeEvents drains, the engine retains at most maxFreeEvents
// recycled events and drops the rest for the GC.
func TestEngineFreeListCap(t *testing.T) {
	old := maxFreeEvents
	maxFreeEvents = 64
	defer func() { maxFreeEvents = old }()

	e := NewEngine(1)
	for i := 0; i < 1000; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.RunAll()
	if e.freeN > 64 {
		t.Fatalf("free list holds %d events, cap is 64", e.freeN)
	}
	n := 0
	for ev := e.free; ev != nil; ev = ev.next {
		n++
	}
	if n != e.freeN {
		t.Fatalf("free list length %d, counter says %d", n, e.freeN)
	}
}

// TestPickQueue pins the auto-selection contract.
func TestPickQueue(t *testing.T) {
	if got := PickQueue(QueueHeap, 1<<20); got != QueueHeap {
		t.Fatalf("explicit heap overridden to %v", got)
	}
	if got := PickQueue(QueueLadder, 1); got != QueueLadder {
		t.Fatalf("explicit ladder overridden to %v", got)
	}
	if got := PickQueue(QueueAuto, LadderDensityMin-1); got != QueueHeap {
		t.Fatalf("auto below threshold picked %v", got)
	}
	if got := PickQueue(QueueAuto, LadderDensityMin); got != QueueLadder {
		t.Fatalf("auto at threshold picked %v", got)
	}
}
