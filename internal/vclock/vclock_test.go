package vclock

import (
	"container/heap"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var epoch = time.Date(2011, 6, 1, 0, 0, 0, 0, time.UTC)

func TestVirtualSleepAdvances(t *testing.T) {
	v := NewVirtual(epoch)
	v.Run(func() {
		v.Sleep(5 * time.Second)
	})
	if got := v.Now(); !got.Equal(epoch.Add(5 * time.Second)) {
		t.Fatalf("Now = %v, want epoch+5s", got)
	}
}

func TestVirtualZeroAndNegativeSleep(t *testing.T) {
	v := NewVirtual(epoch)
	v.Run(func() {
		v.Sleep(0)
		v.Sleep(-time.Second)
	})
	if !v.Now().Equal(epoch) {
		t.Fatal("non-positive Sleep must not advance time")
	}
}

func TestVirtualConcurrentWorkersInterleave(t *testing.T) {
	v := NewVirtual(epoch)
	var mu sync.Mutex
	var order []string
	record := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	v.Run(func() {
		var wg sync.WaitGroup
		wg.Add(2)
		v.Go(func() {
			defer wg.Done()
			v.Sleep(1 * time.Second)
			record("a1")
			v.Sleep(3 * time.Second) // wakes at t=4
			record("a2")
		})
		v.Go(func() {
			defer wg.Done()
			v.Sleep(2 * time.Second)
			record("b1")
			v.Sleep(5 * time.Second) // wakes at t=7
			record("b2")
		})
		v.Sleep(10 * time.Second)
		v.Block(wg.Wait)
	})
	want := []string{"a1", "b1", "a2", "b2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if got := v.Now(); !got.Equal(epoch.Add(10 * time.Second)) {
		t.Fatalf("final Now = %v, want epoch+10s", got)
	}
}

func TestVirtualEqualDeadlinesAllWake(t *testing.T) {
	v := NewVirtual(epoch)
	var n atomic.Int32
	v.Run(func() {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			v.Go(func() {
				defer wg.Done()
				v.Sleep(time.Second)
				n.Add(1)
			})
		}
		v.Sleep(2 * time.Second)
		v.Block(wg.Wait)
	})
	if n.Load() != 8 {
		t.Fatalf("woke %d of 8 sleepers", n.Load())
	}
}

func TestVirtualDeterministic(t *testing.T) {
	run := func() time.Time {
		v := NewVirtual(epoch)
		v.Run(func() {
			var wg sync.WaitGroup
			for i := 1; i <= 5; i++ {
				wg.Add(1)
				d := time.Duration(i) * 100 * time.Millisecond
				v.Go(func() {
					defer wg.Done()
					for j := 0; j < 10; j++ {
						v.Sleep(d)
					}
				})
			}
			v.Block(wg.Wait)
		})
		return v.Now()
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); !got.Equal(first) {
			t.Fatalf("run %d finished at %v, first run at %v", i, got, first)
		}
	}
}

func TestVirtualTimeSkipsIdleGaps(t *testing.T) {
	v := NewVirtual(epoch)
	start := time.Now()
	v.Run(func() {
		v.Sleep(24 * time.Hour) // a day of virtual time...
	})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("virtual day took %v of wall time", elapsed)
	}
	if !v.Now().Equal(epoch.Add(24 * time.Hour)) {
		t.Fatal("virtual day did not elapse")
	}
}

func TestRealClockMonotone(t *testing.T) {
	var c Real
	a := c.Now()
	c.Sleep(time.Millisecond)
	if !c.Now().After(a) {
		t.Fatal("real clock did not advance across Sleep")
	}
	c.Sleep(-time.Hour) // must not block
}

// wakeWorkload runs a nontrivial interleaving — seven workers sleeping
// multiples of 70 ms against a 5 s driver — and returns the trace of
// wake instants.
func wakeWorkload(v *Virtual) []time.Time {
	var mu sync.Mutex
	var trace []time.Time
	v.Run(func() {
		var wg sync.WaitGroup
		for i := 1; i <= 7; i++ {
			wg.Add(1)
			d := time.Duration(i) * 70 * time.Millisecond
			v.Go(func() {
				defer wg.Done()
				for j := 0; j < 9; j++ {
					v.Sleep(d)
					mu.Lock()
					trace = append(trace, v.Now())
					mu.Unlock()
				}
			})
		}
		v.Sleep(5 * time.Second)
		v.Block(wg.Wait)
	})
	return trace
}

func eventWorkload(t *testing.T, v *Virtual) []time.Duration {
	t.Helper()
	waits := make([]time.Duration, 4)
	v.Run(func() {
		ev := v.NewEvent()
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			d := time.Duration(i+1) * 100 * time.Millisecond
			v.Go(func() {
				defer wg.Done()
				v.Sleep(d) // arrive staggered
				start := v.Now()
				ev.Wait()
				waits[int(d/(100*time.Millisecond))-1] = v.Now().Sub(start)
			})
		}
		v.Sleep(time.Second)
		ev.Fire()
		ev.Wait() // fired events do not block
		v.Block(wg.Wait)
	})
	return waits
}

// TestEventReleasesWaitersAtFireInstant: waiters arriving at t=100..400ms
// all resume at the fire instant t=1s, so each is charged exactly the
// virtual time it spent parked — the contract fetch coalescing relies on.
func TestEventReleasesWaitersAtFireInstant(t *testing.T) {
	waits := eventWorkload(t, NewVirtual(epoch))
	for i, w := range waits {
		want := time.Second - time.Duration(i+1)*100*time.Millisecond
		if w != want {
			t.Fatalf("waiter %d parked %v, want %v", i, w, want)
		}
	}
}

// randomWakeWorkload drives W workers through seeded pseudo-random sleep
// sequences spanning µs to tens of ms, with many equal deadlines, and
// returns the exact wake schedule.
func randomWakeWorkload(v *Virtual, seed int64, workers, rounds int) []time.Duration {
	durs := randomSleeps(seed, workers, rounds)
	var mu sync.Mutex
	sched := make([]time.Duration, 0, workers*rounds)
	start := v.Now()
	v.Run(func() {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			v.Go(func() {
				defer wg.Done()
				for _, d := range durs[w] {
					v.Sleep(d)
					mu.Lock()
					sched = append(sched, v.Now().Sub(start))
					mu.Unlock()
				}
			})
		}
		v.Block(wg.Wait)
	})
	return sched
}

// randomSleeps returns the seeded per-worker sleep sequences
// randomWakeWorkload replays.
func randomSleeps(seed int64, workers, rounds int) [][]time.Duration {
	rng := rand.New(rand.NewSource(seed))
	durs := make([][]time.Duration, workers)
	for w := range durs {
		durs[w] = make([]time.Duration, rounds)
		for j := range durs[w] {
			exp := time.Duration(1) << uint(rng.Intn(26)) // 1ns .. ~67ms steps
			durs[w][j] = time.Microsecond + exp
		}
	}
	return durs
}

// BenchmarkSleep measures one Sleep — heap push, advance, heap pop and
// the wakeup handoff — with the given number of pending sleepers queued.
// The benchmark goroutine and one partner worker alternate, so every
// advance pops the other worker and hands it the run token through its
// rendezvous; one op is a round trip (two Sleeps, two handoffs). The
// rest of the queue is sleepers parked beyond the end of the run. The
// engine only touches the sleeper it pops, so a parked sleeper costs it
// one heap entry; those entries are queued directly instead of behind
// 100 000 parked goroutines.
//
// The partner is spawned and warmed up before the timer starts, and the
// run holds one P: the clock runs one worker at a time anyway, and on
// one P the sleeper pool hands each worker back its own record, so
// allocs/op is stable even at -benchtime=1x.
func BenchmarkSleep(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, n := range []int{10, 1_000, 100_000} {
		b.Run(fmt.Sprintf("sleepers=%d", n), func(b *testing.B) {
			v := NewVirtual(epoch)
			far := epoch.Add(1000 * time.Hour)
			v.mu.Lock()
			for i := 0; i < n-2; i++ {
				s := getSleeper()
				s.deadline, s.seq = far, v.seq
				v.seq++
				heap.Push(&v.sleeper, s)
			}
			v.mu.Unlock()
			// The partner trails this goroutine by 1 µs. A few untimed
			// warm-up round trips fill the runtime's per-P caches the
			// handoff draws on.
			const warm = 8
			v.Add(1)
			v.Go(func() {
				v.Sleep(time.Microsecond)
				for i := 1; i < warm+b.N; i++ {
					v.Sleep(2 * time.Microsecond)
				}
			})
			for i := 0; i < warm; i++ {
				v.Sleep(2 * time.Microsecond)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.Sleep(2 * time.Microsecond)
			}
			b.StopTimer()
			v.Done()
		})
	}
}
