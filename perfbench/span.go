package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SpanID names one recorded span; 0 means "no parent".
type SpanID uint64

// Span is one timed call into a layer, recorded from the benchmark's own
// code around a public function of that layer. Start and End are offsets
// from the recorder's epoch; spans of one request share Req.
type Span struct {
	ID     SpanID        `json:"id"`
	Parent SpanID        `json:"parent,omitempty"`
	Req    uint64        `json:"req,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Duration is the span's wall time.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Recorder keeps spans and counts in memory until the run ends. A nil
// *Recorder records nothing, so the untraced (end-to-end) path passes nil
// and pays only a nil check per boundary.
type Recorder struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu     sync.Mutex
	spans  []Span           // guarded by mu
	counts map[string]int64 // guarded by mu
}

// NewRecorder returns an empty recorder whose epoch is now.
func NewRecorder() *Recorder {
	return &Recorder{epoch: time.Now(), counts: make(map[string]int64)}
}

// Open is a span that has started and not yet ended.
type Open struct {
	r      *Recorder
	id     SpanID
	parent SpanID
	req    uint64
	name   string
	start  time.Duration
}

// ID returns the span's identifier, for use as a child's parent.
func (o Open) ID() SpanID { return o.id }

// Start opens a span named name under parent, tagged with request id req.
func (r *Recorder) Start(name string, parent SpanID, req uint64) Open {
	if r == nil {
		return Open{}
	}
	return Open{
		r:      r,
		id:     SpanID(r.nextID.Add(1)),
		parent: parent,
		req:    req,
		name:   name,
		start:  time.Since(r.epoch),
	}
}

// Named returns the span renamed, for a span whose name depends on how
// the call it times turned out.
func (o Open) Named(name string) Open {
	o.name = name
	return o
}

// End closes the span and keeps it.
func (o Open) End() {
	if o.r == nil {
		return
	}
	end := time.Since(o.r.epoch)
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, Span{ID: o.id, Parent: o.parent, Req: o.req, Name: o.name, Start: o.start, End: end})
	o.r.mu.Unlock()
}

// Add adds n to the named count, kept beside the spans so that ratios
// such as time per cycle are formed where the work happens.
func (r *Recorder) Add(name string, n int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counts[name] += n
	r.mu.Unlock()
}

// Count returns the named count.
func (r *Recorder) Count(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[name]
}

// Spans returns a copy of the closed spans in the order they ended.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Durations returns the wall time of every closed span named name.
func (r *Recorder) Durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range r.Spans() {
		if s.Name == name {
			out = append(out, s.Duration())
		}
	}
	return out
}

// SelfTimes maps every span to its self time: its duration minus the part
// of its interval that its children cover. Overlapping children (calls
// made concurrently under one parent) count their union once, and a
// child reaching outside its parent is clipped to the parent.
func SelfTimes(spans []Span) map[SpanID]time.Duration {
	children := make(map[SpanID][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[SpanID]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Duration() - covered(s, children[s.ID])
	}
	return self
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// spanRecord is one line of the written trace.
type spanRecord struct {
	Span
	SelfNs time.Duration `json:"self_ns"`
}

// WriteJSONL writes every span, with its self time, one JSON object per
// line, followed by one line holding the counts.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	spans := r.Spans()
	self := SelfTimes(spans)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(spanRecord{Span: s, SelfNs: self[s.ID]}); err != nil {
			return err
		}
	}
	r.mu.Lock()
	counts := make(map[string]int64, len(r.counts))
	for k, v := range r.counts {
		counts[k] = v
	}
	r.mu.Unlock()
	return enc.Encode(map[string]any{"counts": counts})
}
