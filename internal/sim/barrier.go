package sim

import (
	"runtime"
	"sync/atomic"
)

// BarrierMode selects how a Group synchronizes its per-epoch barrier.
//
// The default, BarrierHybrid, replaces the original per-epoch channel
// round-trip with a spin-then-park handoff plus epoch batching: windows
// where at most one shard has work inside the barrier run entirely on
// the coordinator goroutine with zero cross-goroutine crossings. The
// legacy channel implementation is kept selectable so equivalence tests
// can drive both and assert byte-identical schedules and counters.
type BarrierMode uint8

const (
	// BarrierHybrid (default): per-worker padded command slots that
	// workers spin on briefly and then park behind, plus solo-epoch
	// inlining on the coordinator. One atomic store releases a worker;
	// one atomic decrement joins it.
	BarrierHybrid BarrierMode = iota
	// BarrierChannel: the original one-buffered-channel-per-worker +
	// WaitGroup handoff. Two goroutine wakeups per dispatched worker per
	// epoch. Retained as the reference implementation.
	BarrierChannel
)

func (m BarrierMode) String() string {
	switch m {
	case BarrierHybrid:
		return "hybrid"
	case BarrierChannel:
		return "channel"
	default:
		return "unknown"
	}
}

// barrierSpin bounds how many predicate checks a waiter performs before
// parking on its channel. Epochs are a few hundred simulated nanoseconds
// wide, so on a busy multi-core run the release usually lands within the
// spin window; on an oversubscribed or single-core box the Gosched every
// 16 checks keeps the spin from starving the goroutine holding the work.
const barrierSpin = 256

// workerSlot is one worker's half of the hybrid barrier. The coordinator
// owns seq/until between epochs; cmd is the only cross-goroutine field.
// It packs the last released command number (shifted left one bit) with
// the worker's parked flag (bit 0), so that a release publishes the new
// command and claims the parked flag in one atomic swap — a release can
// then only ever wake a park made while waiting for that very command.
// The pad keeps neighbouring slots out of one cache line so a worker
// spinning on its own cmd never bounces another worker's line.
type workerSlot struct {
	cmd   atomic.Uint64 // released command number << 1 | parked bit
	until Time          // barrier target; written before cmd, read after
	seq   uint64        // coordinator-side: next command number to issue
	wake  chan struct{} // park/unpark token channel, capacity 1
	_     [64]byte
}

// slotParked is the parked bit of workerSlot.cmd.
const slotParked = 1

// release publishes barrier target t as command n and unparks the worker
// if it went to sleep waiting for it. The plain until write is ordered by
// the atomic cmd swap (release) / load (acquire) pair in await.
func (s *workerSlot) release(n uint64, t Time) {
	s.until = t
	if s.cmd.Swap(n<<1)&slotParked != 0 {
		s.wake <- struct{}{}
	}
}

// await blocks until command n has been released and returns its barrier
// target. Spin-then-park: a bounded predicate spin, then a compare-and-
// swap that sets the parked bit only while the released command is still
// older than n, and a channel receive. The protocol cannot lose or
// misdirect a wakeup: a park succeeds only against a command word that
// no release has replaced yet, and the release that does replace it —
// the one publishing n, since the coordinator releases in order — finds
// the bit in the same swap and sends exactly one token.
func (s *workerSlot) await(n uint64) Time {
	for i := 0; i < barrierSpin; i++ {
		if s.cmd.Load()>>1 >= n {
			return s.until
		}
		if i&15 == 15 {
			runtime.Gosched()
		}
	}
	for {
		v := s.cmd.Load()
		if v>>1 >= n {
			return s.until
		}
		if s.cmd.CompareAndSwap(v, v|slotParked) {
			break
		}
	}
	<-s.wake
	return s.until
}

// joinBarrier is the coordinator's half of epoch completion. One word
// packs both halves of the handshake: the low 32 bits count dispatched
// workers still running, and joinParked marks the coordinator as parked
// behind wake. Packing them is what makes the join lossless across
// epochs: the last worker's decrement and its "is the coordinator
// parked?" check are one atomic step, so a worker can never observe a
// parked flag that belongs to a later epoch. (A separate flag word
// would let a worker delayed between its final decrement and its flag
// check find the coordinator already returned by spinning, re-armed for
// the next epoch and parked again — and wake it while that epoch's
// workers were still running.)
type joinBarrier struct {
	state atomic.Uint64
	wake  chan struct{}
}

// joinParked is the coordinator-parked bit of joinBarrier.state.
const joinParked = uint64(1) << 32

// arm starts an epoch with n dispatched workers. Only called by the
// coordinator between epochs, when no worker holds the join word.
func (j *joinBarrier) arm(n int) { j.state.Store(uint64(n)) }

// done is called by a worker arriving at the barrier; the last arrival
// unparks the coordinator if — in the same atomic step — it finds the
// parked bit set.
func (j *joinBarrier) done() {
	if j.state.Add(^uint64(0)) == joinParked {
		j.wake <- struct{}{}
	}
}

// wait blocks the coordinator until every dispatched worker has arrived:
// a bounded spin, then a compare-and-swap that sets the parked bit only
// while workers are still out. If the swap loses to the last decrement,
// every worker has arrived and no token will be sent.
func (j *joinBarrier) wait() {
	for i := 0; i < barrierSpin; i++ {
		if j.state.Load() == 0 {
			return
		}
		if i&15 == 15 {
			runtime.Gosched()
		}
	}
	for {
		v := j.state.Load()
		if v == 0 {
			return
		}
		if j.state.CompareAndSwap(v, v|joinParked) {
			break
		}
	}
	<-j.wake
}
