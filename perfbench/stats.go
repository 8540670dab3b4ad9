package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between the
// nearest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	f := pos - float64(i)
	return s[i]*(1-f) + s[i+1]*f
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// maxOf returns the largest element (0 for an empty slice).
func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// span is one interval the benchmark recorded around its own call into a
// layer of the program. Spans live in memory until the run ends.
type span struct {
	Name   string
	Track  int // rank, or 0 for the single client goroutine
	Parent string
	Start  time.Duration // since the recorder's epoch
	Dur    time.Duration
	Bytes  int64
}

// spanLog collects spans from any goroutine. A nil *spanLog records
// nothing, which is how untraced runs call it.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// add records a finished span that started at t0.
func (l *spanLog) add(name, parent string, track int, t0 time.Time, d time.Duration, bytes int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{Name: name, Track: track, Parent: parent, Start: t0.Sub(l.epoch), Dur: d, Bytes: bytes})
	l.mu.Unlock()
}

// time runs f and records it as a span.
func (l *spanLog) time(name, parent string, track int, f func()) time.Duration {
	t0 := time.Now()
	f()
	d := time.Since(t0)
	l.add(name, parent, track, t0, d, 0)
	return d
}

// traceEvent is one Chrome trace-event record.
type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// writeChrome writes the benchmark's spans as Chrome trace-event JSON
// (process "perfbench", one thread per track), loadable in Perfetto beside
// the program's own rank traces.
func (l *spanLog) writeChrome(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	events := []traceEvent{{Name: "process_name", Phase: "M", PID: 1, Args: map[string]any{"name": "perfbench"}}}
	for _, s := range l.spans {
		args := map[string]any{}
		if s.Parent != "" {
			args["parent"] = s.Parent
		}
		if s.Bytes != 0 {
			args["bytes"] = s.Bytes
		}
		events = append(events, traceEvent{
			Name: s.Name, Phase: "X", PID: 1, TID: s.Track,
			TS: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64(s.Dur.Nanoseconds()) / 1e3,
			Args: args,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}{events}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
