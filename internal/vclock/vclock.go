// Package vclock provides the clock abstraction the whole repository is
// written against. Production binaries use the real clock; the experiment
// harness uses a deterministic discrete-event virtual clock so that the
// paper's multi-minute experiments (e.g. the 700 MB trace replay behind
// Fig 6) reproduce in milliseconds of wall time, with zero flakiness.
//
// The virtual clock is a cooperative discrete-event scheduler: goroutines
// participating in an experiment register as workers (Go or Add/Done);
// when every registered worker is blocked in Sleep, virtual time jumps to
// the earliest pending deadline and the corresponding sleepers wake.
//
// The engine keeps the pending sleepers in one deadline heap ordered by
// (deadline, seq) and wakes exactly one sleeper per advance — the
// earliest, FIFO among equal deadlines — by handing it the run token
// through its own one-waiter rendezvous: a private condition variable,
// so no channel operation is ever reachable under a caller's lock. An
// advance therefore costs O(log sleepers) for the heap pop and O(1) for
// the wakeup, however many workers are parked.
package vclock

import (
	"container/heap"
	"sync"
	"time"
)

// Clock is the minimal time source used throughout the repository.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// Sleep blocks the calling worker for d. A non-positive d returns
	// immediately.
	Sleep(d time.Duration)
}

// Real is the wall clock.
type Real struct{}

var _ Clock = Real{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// Virtual is a deterministic discrete-event clock.
type Virtual struct {
	mu      sync.Mutex
	now     time.Time
	active  int         // registered workers currently runnable
	sleeper sleeperHeap // pending sleepers by (deadline, seq)
	seq     uint64      // tie-break so equal deadlines wake FIFO
}

var _ Clock = (*Virtual)(nil)

// NewVirtual returns a virtual clock starting at epoch. The experiment
// harness passes a fixed epoch so every run is bit-identical.
func NewVirtual(epoch time.Time) *Virtual {
	return &Virtual{now: epoch}
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Add registers n runnable workers. Every goroutine that will call Sleep
// must be registered, otherwise time can advance while it still has work
// to do. Pair with Done.
func (v *Virtual) Add(n int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.active += n
}

// Done unregisters a worker. When the last runnable worker finishes or
// sleeps, time advances.
func (v *Virtual) Done() {
	v.mu.Lock()
	v.active--
	var wake *sleeper
	if v.active == 0 {
		wake = v.advanceLocked()
	}
	v.mu.Unlock()
	if wake != nil {
		wake.signal()
	}
}

// Go runs fn as a registered worker in a new goroutine.
func (v *Virtual) Go(fn func()) {
	v.Add(1)
	go func() {
		defer v.Done()
		fn()
	}()
}

// Run registers the calling goroutine, runs fn, and unregisters. Use it
// for the experiment's main driver.
func (v *Virtual) Run(fn func()) {
	v.Add(1)
	defer v.Done()
	fn()
}

// Block runs fn with the calling worker deregistered. Use it whenever a
// registered worker must block on something other than Sleep (a
// sync.WaitGroup, channel receive, ...): while fn blocks, virtual time is
// free to advance so the goroutines it waits for can make progress.
// Blocking on such primitives while registered deadlocks the clock.
func (v *Virtual) Block(fn func()) {
	v.Done()
	defer v.Add(1)
	fn()
}

// Sleep implements Clock. The caller must be a registered worker.
//
// c4h:hotpath
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	s := getSleeper()
	v.mu.Lock()
	s.deadline = v.now.Add(d)
	s.seq = v.seq
	v.seq++
	heap.Push(&v.sleeper, s)
	v.active--
	var wake *sleeper
	if v.active == 0 {
		wake = v.advanceLocked()
	}
	v.mu.Unlock()
	// Hand the token over outside the lock (chanhold discipline); if the
	// advance woke ourselves, skip the rendezvous round-trip.
	if wake != nil && wake != s {
		wake.signal()
	}
	if wake != s {
		s.wait()
	}
	putSleeper(s)
}

// advanceLocked jumps time to the earliest deadline and pops exactly
// one sleeper — the earliest, FIFO among equal deadlines — and returns
// it, or nil when nothing is pending. Caller holds v.mu and
// v.active == 0, and must signal the returned sleeper after releasing
// v.mu.
//
// Waking one worker at a time (rather than every sleeper due at the
// instant) keeps concurrent workloads deterministic: at most one worker
// is runnable after the advance, so shared state (the network's
// per-operation RNG counter, job queues, resource active counts) is
// always touched in deadline order, never in Go-scheduler order. When
// the woken worker sleeps or finishes, the next sleeper due at the same
// instant wakes; virtual time never regresses.
//
// c4h:hotpath
func (v *Virtual) advanceLocked() *sleeper {
	if v.sleeper.Len() == 0 {
		return nil
	}
	s := heap.Pop(&v.sleeper).(*sleeper)
	if s.deadline.After(v.now) {
		v.now = s.deadline
	}
	v.active++
	return s
}

// Event is a deterministic one-shot broadcast point for registered
// workers: waiters park exactly like sleepers, and Fire releases them
// through the normal advance machinery — each waiter is enqueued at the
// current instant with a fresh sequence number in arrival order, so they
// wake one at a time, FIFO, regardless of Go scheduling. The fetch
// coalescing layer uses it to block follower fetches on the leader's
// transfer without perturbing the schedule.
type Event struct {
	v       *Virtual
	fired   bool
	waiters []*sleeper
}

// NewEvent returns an unfired event bound to the clock.
func (v *Virtual) NewEvent() *Event { return &Event{v: v} }

// Wait parks the calling registered worker until Fire. Waiting on an
// already-fired event returns immediately without yielding the schedule.
func (e *Event) Wait() {
	v := e.v
	s := getSleeper()
	v.mu.Lock()
	if e.fired {
		v.mu.Unlock()
		putSleeper(s)
		return
	}
	e.waiters = append(e.waiters, s)
	v.active--
	var wake *sleeper
	if v.active == 0 {
		wake = v.advanceLocked()
	}
	v.mu.Unlock()
	// wake can never be s here: s is parked on the event, not in the
	// deadline queue, until Fire enqueues it.
	if wake != nil {
		wake.signal()
	}
	s.wait()
	putSleeper(s)
}

// Fire releases every waiter, in arrival order, at the current virtual
// instant. Firing twice is a no-op. The caller must be a runnable
// registered worker (it does not block).
//
// c4h:hotpath
func (e *Event) Fire() {
	v := e.v
	v.mu.Lock()
	if !e.fired {
		e.fired = true
		for _, s := range e.waiters {
			s.deadline = v.now
			s.seq = v.seq
			v.seq++
			heap.Push(&v.sleeper, s)
		}
		e.waiters = nil
	}
	v.mu.Unlock()
}

type sleeper struct {
	deadline time.Time
	seq      uint64
	index    int

	// Wakeup rendezvous: a private one-waiter condition variable, so
	// signalling the popped sleeper costs O(1) however many workers are
	// parked.
	wmu   sync.Mutex
	wcond *sync.Cond
	ready bool
}

// signal hands the wake token to a parked sleeper. A sleeper is
// signalled at most once per park (advanceLocked pops it from the queue
// before anyone may signal it), and never blocks the signaller.
// Callers must not hold v.mu.
func (s *sleeper) signal() {
	s.wmu.Lock()
	s.ready = true
	s.wmu.Unlock()
	s.wcond.Signal()
}

// wait parks until signal (token semantics: signal-before-wait returns
// immediately). Callers must not hold v.mu.
func (s *sleeper) wait() {
	s.wmu.Lock()
	for !s.ready {
		s.wcond.Wait()
	}
	s.ready = false
	s.wmu.Unlock()
}

// sleeperPool recycles sleeper records: every Sleep used to allocate
// one, which made the scheduler itself the simulator's largest source of
// small objects. A sleeper is owned by exactly one goroutine between
// getSleeper and putSleeper, so pooling is race-free.
var sleeperPool = sync.Pool{New: func() any {
	s := &sleeper{}
	s.wcond = sync.NewCond(&s.wmu)
	return s
}}

// c4h:hotpath
func getSleeper() *sleeper { return sleeperPool.Get().(*sleeper) }

// c4h:hotpath
func putSleeper(s *sleeper) { sleeperPool.Put(s) }

type sleeperHeap []*sleeper

func (h sleeperHeap) Len() int { return len(h) }
func (h sleeperHeap) Less(i, j int) bool {
	if !h[i].deadline.Equal(h[j].deadline) {
		return h[i].deadline.Before(h[j].deadline)
	}
	return h[i].seq < h[j].seq
}
func (h sleeperHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *sleeperHeap) Push(x any) {
	s := x.(*sleeper)
	s.index = len(*h)
	*h = append(*h, s)
}
func (h *sleeperHeap) Pop() any {
	old := *h
	n := len(old)
	s := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return s
}
