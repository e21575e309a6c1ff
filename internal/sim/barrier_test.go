package sim

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
)

// barrierTrial is everything observable about one group run that the two
// barrier implementations must agree on: per-shard execution order, the
// shared clock, the event total, and the epoch/dispatch/skip counters.
type barrierTrial struct {
	orders     [][]string
	epochs     uint64
	dispatched []uint64
	skipped    []uint64
	events     uint64
	now        Time
	crossings  uint64
	inlined    uint64
}

// runBarrierTrial drives a randomized schedule — initial events, event
// chains scheduled from inside callbacks, and cross-shard scheduling
// between epochs (the staging-drain pattern) — through a group in the
// given barrier mode. Everything is a pure function of (shards, seed):
// epoch windows derive from NextAt, which both modes compute identically,
// so the rng stream stays aligned across modes.
func runBarrierTrial(mode BarrierMode, shards int, seed int64) barrierTrial {
	engines := make([]*Engine, shards)
	for i := range engines {
		engines[i] = NewEngine(int64(100 + i))
	}
	g := NewGroupMode(engines, mode)
	defer g.Close()

	orders := make([][]string, shards)
	var sched func(i int, at Time, tag, chain int)
	sched = func(i int, at Time, tag, chain int) {
		eng := engines[i]
		eng.Schedule(at, func() {
			orders[i] = append(orders[i], fmt.Sprintf("%d/%d", eng.Now(), tag))
			if chain > 0 {
				sched(i, eng.Now().Add(Duration(1+tag%37)), tag+1000, chain-1)
			}
		})
	}

	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < shards; i++ {
		for k := 0; k < 30; k++ {
			sched(i, Time(1+rng.Intn(500)), i*10000+k, rng.Intn(3))
		}
	}

	const lookahead = Duration(7)
	for epoch := 0; ; epoch++ {
		at, ok := g.NextAt()
		if !ok {
			break
		}
		g.RunEpoch(at.Add(lookahead - 1))
		// Cross-shard scheduling between epochs, like netsim's staging
		// drain. Bounded so the run terminates.
		if epoch < 200 && rng.Intn(3) == 0 {
			dst := rng.Intn(shards)
			sched(dst, g.Now().Add(Duration(1+rng.Intn(50))), 50000+epoch, 0)
		}
		if epoch > 1_000_000 {
			panic("runaway barrier trial")
		}
	}

	tr := barrierTrial{
		orders:    orders,
		epochs:    g.Epochs(),
		events:    g.Events(),
		now:       g.Now(),
		crossings: g.Crossings(),
		inlined:   g.Inlined(),
	}
	for i := 0; i < shards; i++ {
		tr.dispatched = append(tr.dispatched, g.Dispatched(i))
		tr.skipped = append(tr.skipped, g.Skipped(i))
	}
	return tr
}

// TestGroupBarrierEquivalence is the randomized equivalence property for
// the hybrid barrier: for identical schedules, the hybrid spin-then-park
// barrier (with its inline epoch batching) and the legacy channel barrier
// must produce identical per-shard execution orders, clocks, event totals,
// and epoch/dispatch/skip counters at every shard count.
func TestGroupBarrierEquivalence(t *testing.T) {
	var sawCrossing, sawInline bool
	for _, shards := range []int{1, 2, 4, 8} {
		for trial := 0; trial < 6; trial++ {
			seed := int64(shards*1000 + trial)
			want := runBarrierTrial(BarrierChannel, shards, seed)
			got := runBarrierTrial(BarrierHybrid, shards, seed)

			if got.epochs != want.epochs || got.events != want.events || got.now != want.now {
				t.Fatalf("shards=%d seed=%d: epochs/events/now = %d/%d/%d vs %d/%d/%d",
					shards, seed, got.epochs, got.events, got.now, want.epochs, want.events, want.now)
			}
			for i := 0; i < shards; i++ {
				if got.dispatched[i] != want.dispatched[i] || got.skipped[i] != want.skipped[i] {
					t.Fatalf("shards=%d seed=%d: shard %d dispatched/skipped %d/%d vs %d/%d",
						shards, seed, i, got.dispatched[i], got.skipped[i], want.dispatched[i], want.skipped[i])
				}
				if len(got.orders[i]) != len(want.orders[i]) {
					t.Fatalf("shards=%d seed=%d: shard %d ran %d events, channel ran %d",
						shards, seed, i, len(got.orders[i]), len(want.orders[i]))
				}
				for k := range want.orders[i] {
					if got.orders[i][k] != want.orders[i][k] {
						t.Fatalf("shards=%d seed=%d: shard %d diverges at %d: %s vs %s",
							shards, seed, i, k, got.orders[i][k], want.orders[i][k])
					}
				}
			}
			if got.crossings > 0 {
				sawCrossing = true
			}
			if got.inlined > 0 {
				sawInline = true
			}
			if want.crossings != 0 || want.inlined != 0 {
				t.Fatalf("channel mode reported hybrid counters: crossings=%d inlined=%d",
					want.crossings, want.inlined)
			}
		}
	}
	if !sawCrossing {
		t.Fatal("no trial exercised the multi-shard barrier crossing path")
	}
	if !sawInline {
		t.Fatal("no trial exercised the inline epoch-batching path")
	}
}

// TestGroupBarrierBatching pins the batching contract directly: when at
// most one worker shard ever has pending work, the hybrid barrier must
// run every epoch inline — zero cross-goroutine crossings.
func TestGroupBarrierBatching(t *testing.T) {
	engines := []*Engine{NewEngine(1), NewEngine(2), NewEngine(3)}
	g := NewGroupMode(engines, BarrierHybrid)
	defer g.Close()

	// Per-shard counters: shards may run on different goroutines, so no
	// event callback shares state across shards.
	var ran [3]int
	for i := 0; i < 100; i++ {
		engines[2].Schedule(Time(10*i+5), func() { ran[2]++ })
	}
	for {
		at, ok := g.NextAt()
		if !ok {
			break
		}
		g.RunEpoch(at.Add(3))
	}
	if ran[2] != 100 {
		t.Fatalf("ran %d of 100 events", ran[2])
	}
	if g.Crossings() != 0 {
		t.Fatalf("singleton-busy windows paid %d barrier crossings, want 0", g.Crossings())
	}
	if g.Inlined() == 0 {
		t.Fatal("no epochs were batched inline")
	}
	// A window with two busy worker shards must cross the barrier.
	engines[1].Schedule(g.Now().Add(5), func() { ran[1]++ })
	engines[2].Schedule(g.Now().Add(5), func() { ran[2]++ })
	g.RunEpoch(g.Now().Add(10))
	if g.Crossings() != 1 {
		t.Fatalf("two-busy window crossings = %d, want 1", g.Crossings())
	}
	if ran[1] != 1 || ran[2] != 101 {
		t.Fatalf("crossing epoch ran %d/%d events, want 1/101", ran[1], ran[2])
	}
}

// joinSink defeats dead-code elimination of the stress test's busy work.
var joinSink atomic.Uint64

// TestGroupJoinNoEarlyWake stresses the hybrid barrier's two handshakes
// in isolation: a coordinator arms, releases and joins three workers for
// many back-to-back epochs, with uneven per-epoch work so that arrival
// order and the spin/park outcome on both sides vary from epoch to epoch.
// Every worker checks that it woke for the command it is waiting on and
// bumps arrived before it calls done, so a correct barrier returns from
// the join only once arrived equals the worker count. The failures this
// pins are cross-epoch wakes, where one side is delayed between
// publishing its count (or command) and checking the other side's parked
// flag, and by then that flag belongs to a later epoch: the last worker
// of epoch k waking the coordinator already parked for epoch k+1, or a
// release of command n waking its worker already parked for n+1. Either
// one desynchronizes the epoch count and hangs the group.
func TestGroupJoinNoEarlyWake(t *testing.T) {
	const workers = 3
	epochs := 200_000
	if testing.Short() {
		epochs = 20_000
	}
	j := joinBarrier{wake: make(chan struct{}, 1)}
	slots := make([]*workerSlot, workers)
	var arrived atomic.Int32
	var stale atomic.Uint64 // first command a worker ran with a stale target (0: none)
	var stop atomic.Bool
	for w := range slots {
		s := &workerSlot{wake: make(chan struct{}, 1)}
		slots[w] = s
		go func() {
			for n := uint64(1); ; n++ {
				until := s.await(n)
				if stop.Load() {
					return
				}
				if until != Time(n) {
					stale.CompareAndSwap(0, n)
				}
				var x uint64
				for k := uint64(0); k < (n*uint64(w+3))%97; k++ {
					x += k * n
				}
				joinSink.Add(x)
				arrived.Add(1)
				j.done()
			}
		}()
	}
	defer func() {
		stop.Store(true)
		for _, s := range slots {
			s.seq++
			s.release(s.seq, 0)
		}
	}()
	for e := 0; e < epochs; e++ {
		arrived.Store(0)
		j.arm(workers)
		for _, s := range slots {
			s.seq++
			s.release(s.seq, Time(s.seq))
		}
		j.wait()
		if n := stale.Load(); n != 0 {
			t.Fatalf("epoch %d: a worker woke for command %d with a stale target", e, n)
		}
		if got := arrived.Load(); got != workers {
			t.Fatalf("epoch %d: join returned after %d of %d workers arrived", e, got, workers)
		}
	}
}
