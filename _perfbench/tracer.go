package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// spanID names a recorded span; 0 is "no span" and is what a disabled
// tracer hands out.
type spanID int32

// span is one call from the benchmark into a layer, timed on the host
// clock. Spans of one operation share op; tid separates concurrent
// clients in the trace viewer.
type span struct {
	name       string
	start, end time.Duration // host time since the tracer was made; end < 0 while open
	parent     spanID
	op         int64
	tid        int
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and costs one branch per call.
type tracer struct {
	on     bool
	origin time.Time

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, origin: time.Now()}
}

// begin opens a span under parent.
func (t *tracer) begin(name string, parent spanID, op int64, tid int) spanID {
	if !t.on {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, op: op, tid: tid})
	return spanID(len(t.spans))
}

// end closes a span opened by begin.
func (t *tracer) end(id spanID) {
	if id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].end = now
}

// call runs fn inside a span and passes fn's error through.
func (t *tracer) call(name string, parent spanID, op int64, tid int, fn func() error) error {
	id := t.begin(name, parent, op, tid)
	err := fn()
	t.end(id)
	return err
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of it that its
// children cover. Concurrent children may overlap each other, so the
// covered part is the union of their intervals.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent > 0 {
			kids[s.parent-1] = append(kids[s.parent-1], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := make([][2]time.Duration, 0, len(kids[i]))
		for _, k := range kids[i] {
			ivs = append(ivs, [2]time.Duration{spans[k].start, spans[k].end})
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, curS, curE time.Duration
		open := false
		for _, iv := range ivs {
			switch {
			case !open:
				curS, curE, open = iv[0], iv[1], true
			case iv[0] <= curE:
				if iv[1] > curE {
					curE = iv[1]
				}
			default:
				covered += curE - curS
				curS, curE = iv[0], iv[1]
			}
		}
		if open {
			covered += curE - curS
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// checkSpans reports the first malformed span: one left open, one that
// ends before it starts, a child outside its parent, or a negative self
// time.
func checkSpans(spans []span) error {
	for i, s := range spans {
		if s.end < 0 {
			return fmt.Errorf("span %d %q never closed", i+1, s.name)
		}
		if s.end < s.start {
			return fmt.Errorf("span %d %q ends before it starts", i+1, s.name)
		}
		if s.parent < 0 || int(s.parent) > len(spans) || int(s.parent) == i+1 {
			return fmt.Errorf("span %d %q has bad parent %d", i+1, s.name, s.parent)
		}
		if s.parent > 0 {
			p := spans[s.parent-1]
			if s.start < p.start || s.end > p.end {
				return fmt.Errorf("span %d %q lies outside its parent %q", i+1, s.name, p.name)
			}
		}
	}
	for i, d := range selfTimes(spans) {
		if d < 0 {
			return fmt.Errorf("span %d %q has negative self time %v", i+1, spans[i].name, d)
		}
	}
	return nil
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	count       int
	total, self time.Duration
}

func (s spanStat) meanSelf() time.Duration {
	if s.count == 0 {
		return 0
	}
	return s.self / time.Duration(s.count)
}

// aggregate sums count, total and self time per span name.
func aggregate(spans []span) map[string]spanStat {
	self := selfTimes(spans)
	out := map[string]spanStat{}
	for i, s := range spans {
		st := out[s.name]
		st.count++
		st.total += s.end - s.start
		st.self += self[i]
		out[s.name] = st
	}
	return out
}

// layerOf is the module a span name starts with ("kv.Store.Get" → "kv").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// writeChrome writes the spans as Chrome trace-event JSON, which
// chrome://tracing and https://ui.perfetto.dev open directly. Events are
// encoded one at a time: a traced city-read holds over half a million
// spans.
func writeChrome(path string, spans []span) error {
	type args struct {
		ID     int     `json:"id"`
		Parent int     `json:"parent"`
		Op     int64   `json:"op"`
		SelfUS float64 `json:"self_us"`
	}
	type event struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args args    `json:"args"`
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	self := selfTimes(spans)
	w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		data, err := json.Marshal(event{
			Name: s.name,
			Cat:  layerOf(s.name),
			Ph:   "X",
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Pid:  1,
			Tid:  s.tid,
			Args: args{ID: i + 1, Parent: int(s.parent), Op: s.op, SelfUS: float64(self[i]) / 1e3},
		})
		if err != nil {
			return err
		}
		w.Write(data)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
