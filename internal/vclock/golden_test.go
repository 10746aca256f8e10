package vclock

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current engine")

// checkGolden compares got against testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: line %d is %q, golden has %q", name, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, golden has %d", name, len(gl), len(wl))
}

// TestWakeOrderMatchesGolden replays wakeWorkload and requires every
// wake instant to equal the schedule recorded in testdata from the heap
// engine with broadcast wakeups.
func TestWakeOrderMatchesGolden(t *testing.T) {
	var b strings.Builder
	for _, at := range wakeWorkload(NewVirtual(epoch)) {
		fmt.Fprintf(&b, "%d\n", at.Sub(epoch))
	}
	checkGolden(t, "wake_order.golden", b.String())
}

// TestRandomWakeScheduleMatchesGolden drives randomWakeWorkload — sleeps
// spanning µs to tens of ms, many equal deadlines — for five seeds and
// compares each complete wake schedule, by length and SHA-256 of its
// rendered offsets, against the recorded one.
func TestRandomWakeScheduleMatchesGolden(t *testing.T) {
	var b strings.Builder
	for seed := int64(1); seed <= 5; seed++ {
		sched := randomWakeWorkload(NewVirtual(epoch), seed, 32, 40)
		h := sha256.New()
		for _, d := range sched {
			fmt.Fprintf(h, "%d\n", d)
		}
		fmt.Fprintf(&b, "seed=%d wakes=%d sha256=%x\n", seed, len(sched), h.Sum(nil))
	}
	checkGolden(t, "random_wake.golden", b.String())
}
