package vclock

import (
	"container/heap"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// The tests in this file keep the names they had when the package had
// three engines (the heap, a calendar queue and a sharded heap) and each
// compared an alternative engine against the heap. The heap is now the
// only engine. Each test checks the same property against a fixed
// reference instead: the recorded wake order, a sorted model or an
// exact expected instant. The property is one the deleted engine was
// prone to breaking: bucket alignment, host parallelism or tie order.

// renderWakes formats each wake instant as its offset from start, one
// per line, in the layout of testdata/wake_order.golden.
func renderWakes(start time.Time, trace []time.Time) string {
	var b strings.Builder
	for _, at := range trace {
		fmt.Fprintf(&b, "%d\n", at.Sub(start))
	}
	return b.String()
}

// TestVirtualShardedMatchesDefault: the wake order does not depend on
// host parallelism. wakeWorkload replays under 1 to 8 Ps and every run
// must equal the recorded wake order.
func TestVirtualShardedMatchesDefault(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		got := renderWakes(epoch, wakeWorkload(NewVirtual(epoch)))
		checkGolden(t, "wake_order.golden", got)
	}
}

// TestVirtualCalendarMatchesDefault: the wake order does not depend on
// where the clock starts. wakeWorkload replays from epochs that are not
// aligned to a second, a millisecond or the Unix epoch, and the offsets
// must equal the recorded wake order.
func TestVirtualCalendarMatchesDefault(t *testing.T) {
	for _, start := range []time.Time{
		epoch.Add(123_456_789 * time.Nanosecond),
		epoch.Add(-time.Nanosecond),
		time.Date(1969, 12, 31, 23, 59, 59, 999_999_999, time.UTC),
	} {
		got := renderWakes(start, wakeWorkload(NewVirtual(start)))
		checkGolden(t, "wake_order.golden", got)
	}
}

// TestVirtualCalendarPropertyByteIdentical: on random workloads every
// worker sleeps a fixed sequence, so its wake instants are the prefix
// sums of that sequence. The clock runs one worker at a time in deadline
// order. The complete wake schedule must therefore equal the sorted
// union of all prefix sums, element for element.
func TestVirtualCalendarPropertyByteIdentical(t *testing.T) {
	workers, rounds := 32, 40
	if testing.Short() {
		workers = 12
	}
	for seed := int64(1); seed <= 5; seed++ {
		var want []time.Duration
		for _, seq := range randomSleeps(seed, workers, rounds) {
			var at time.Duration
			for _, d := range seq {
				at += d
				want = append(want, at)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got := randomWakeWorkload(NewVirtual(epoch), seed, workers, rounds)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d wakes, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: wake %d at +%v, model says +%v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestCalendarQueueOrderAgainstHeap pounds the raw sleeper heap with
// interleaved pushes and pops and checks every pop against a sorted
// reference model. The pushes include far-future outliers and
// same-instant duplicates that exercise the seq tie-break.
func TestCalendarQueueOrderAgainstHeap(t *testing.T) {
	type key struct {
		deadline time.Time
		seq      uint64
	}
	less := func(a, b key) bool {
		if !a.deadline.Equal(b.deadline) {
			return a.deadline.Before(b.deadline)
		}
		return a.seq < b.seq
	}
	rng := rand.New(rand.NewSource(7))
	var h sleeperHeap
	var ref []key // kept sorted
	var seq uint64
	now := time.Duration(0)
	pop := func(step int) {
		got := heap.Pop(&h).(*sleeper)
		want := ref[0]
		ref = ref[1:]
		if !got.deadline.Equal(want.deadline) || got.seq != want.seq {
			t.Fatalf("step %d: popped (%v, %d), model says (%v, %d)",
				step, got.deadline, got.seq, want.deadline, want.seq)
		}
		now = got.deadline.Sub(epoch)
	}
	for step := 0; step < 20000; step++ {
		if h.Len() == 0 || rng.Intn(3) != 0 {
			var d time.Duration
			switch rng.Intn(10) {
			case 0:
				d = time.Duration(rng.Intn(1000)) * time.Hour // far outlier
			case 1, 2:
				d = 0 // same instant (Event.Fire shape)
			default:
				d = time.Duration(rng.Intn(5_000_000)) * time.Nanosecond
			}
			k := key{epoch.Add(now + d), seq}
			seq++
			heap.Push(&h, &sleeper{deadline: k.deadline, seq: k.seq})
			i := sort.Search(len(ref), func(i int) bool { return less(k, ref[i]) })
			ref = append(ref, key{})
			copy(ref[i+1:], ref[i:])
			ref[i] = k
			continue
		}
		pop(step)
	}
	for h.Len() > 0 {
		pop(-1)
	}
}

// TestVirtualCalendarEqualDeadlinesAllWake: sleepers that share a
// deadline wake FIFO, in the order they went to sleep, all at that
// instant. Worker i first sleeps i ms, so the workers enqueue their
// second sleeps in index order, each sleeping until the same instant
// 1 s + 7 ns, which is not aligned to a millisecond.
func TestVirtualCalendarEqualDeadlinesAllWake(t *testing.T) {
	const n = 8
	due := epoch.Add(time.Second + 7*time.Nanosecond)
	v := NewVirtual(epoch)
	var mu sync.Mutex
	var order []int
	var late []time.Time
	v.Run(func() {
		var wg sync.WaitGroup
		for i := 1; i <= n; i++ {
			wg.Add(1)
			v.Go(func() {
				defer wg.Done()
				v.Sleep(time.Duration(i) * time.Millisecond)
				v.Sleep(due.Sub(v.Now()))
				mu.Lock()
				order = append(order, i)
				if now := v.Now(); !now.Equal(due) {
					late = append(late, now)
				}
				mu.Unlock()
			})
		}
		v.Block(wg.Wait)
	})
	if len(late) != 0 {
		t.Fatalf("sleepers woke at %v, want all at %v", late, due)
	}
	if len(order) != n {
		t.Fatalf("woke %d of %d sleepers", len(order), n)
	}
	for i, w := range order {
		if w != i+1 {
			t.Fatalf("wake order %v, want 1..%d", order, n)
		}
	}
}

// TestVirtualShardedEqualDeadlinesAllWake: a thousand workers that go to
// sleep concurrently on several Ps, all for the same second, all wake
// at that instant, and time does not move past it.
func TestVirtualShardedEqualDeadlinesAllWake(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 1000
	due := epoch.Add(time.Second)
	v := NewVirtual(epoch)
	var mu sync.Mutex
	woke, onTime := 0, 0
	v.Run(func() {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			v.Go(func() {
				defer wg.Done()
				v.Sleep(time.Second)
				mu.Lock()
				woke++
				if v.Now().Equal(due) {
					onTime++
				}
				mu.Unlock()
			})
		}
		v.Block(wg.Wait)
	})
	if woke != n || onTime != n {
		t.Fatalf("woke %d of %d sleepers, %d at the deadline", woke, n, onTime)
	}
	if !v.Now().Equal(due) {
		t.Fatalf("final Now = %v, want %v", v.Now(), due)
	}
}

// TestEventReleasesWaitersAtFireInstantCalendar: an Event fired at an
// instant that is not aligned to a millisecond releases its waiters in
// arrival order at exactly that instant. Each waiter is charged the
// virtual time it spent parked, down to the nanosecond. A waiter that
// arrives after Fire does not park at all.
func TestEventReleasesWaitersAtFireInstantCalendar(t *testing.T) {
	arrive := []time.Duration{
		3 * time.Microsecond,
		250 * time.Microsecond,
		999*time.Microsecond + time.Nanosecond,
		1500 * time.Microsecond,
	}
	fire := 1500*time.Microsecond + 7*time.Nanosecond
	lateArrival := 2 * time.Millisecond
	v := NewVirtual(epoch)
	var mu sync.Mutex
	var order []int
	parked := make([]time.Duration, len(arrive)+1)
	resumed := make([]time.Duration, len(arrive)+1)
	v.Run(func() {
		ev := v.NewEvent()
		var wg sync.WaitGroup
		for i, d := range append(arrive, lateArrival) {
			wg.Add(1)
			v.Go(func() {
				defer wg.Done()
				v.Sleep(d)
				start := v.Now()
				ev.Wait()
				mu.Lock()
				order = append(order, i)
				parked[i] = v.Now().Sub(start)
				resumed[i] = v.Now().Sub(epoch)
				mu.Unlock()
			})
		}
		v.Sleep(fire)
		ev.Fire()
		v.Block(wg.Wait)
	})
	for i, d := range arrive {
		if order[i] != i {
			t.Fatalf("release order %v, want arrival order", order)
		}
		if parked[i] != fire-d || resumed[i] != fire {
			t.Fatalf("waiter %d parked %v and resumed at +%v, want %v and +%v",
				i, parked[i], resumed[i], fire-d, fire)
		}
	}
	late := len(arrive)
	if parked[late] != 0 || resumed[late] != lateArrival {
		t.Fatalf("late waiter parked %v and resumed at +%v, want 0 and +%v",
			parked[late], resumed[late], lateArrival)
	}
}
