package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "op", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "build", Start: ms(0), End: ms(10)},
		{ID: 3, Parent: 1, Name: "step", Start: ms(10), End: ms(90)},
		{ID: 4, Parent: 3, Name: "inner", Start: ms(20), End: ms(30)},
	}
	self := SelfTimes(spans)
	for id, want := range map[SpanID]time.Duration{1: ms(10), 2: ms(10), 3: ms(70), 4: ms(10)} {
		if self[id] != want {
			t.Errorf("span %d self = %v, want %v", id, self[id], want)
		}
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	// Two concurrent children overlap on [20,40); a third reaches past
	// the parent's end and is clipped.
	spans := []Span{
		{ID: 1, Name: "sweep", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Start: ms(20), End: ms(50)},
		{ID: 4, Parent: 1, Start: ms(90), End: ms(130)},
	}
	if got := SelfTimes(spans)[1]; got != ms(50) {
		t.Fatalf("self = %v, want 50ms", got)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *Recorder
	sp := r.Start("x", 0, 1)
	sp.End()
	r.Add("n", 3)
	if r.Spans() != nil || r.Count("n") != 0 || sp.ID() != 0 {
		t.Fatal("nil recorder recorded")
	}
}

func TestRecorderConcurrentAndWritten(t *testing.T) {
	r := NewRecorder()
	root := r.Start("root", 0, 7)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Start("child", root.ID(), 7)
			r.Add("work", 2)
			c.End()
		}()
	}
	wg.Wait()
	root.End()
	spans := r.Spans()
	if len(spans) != 9 || r.Count("work") != 16 {
		t.Fatalf("%d spans, work %d", len(spans), r.Count("work"))
	}
	ids := make(map[SpanID]bool)
	for _, s := range spans {
		if ids[s.ID] || s.End < s.Start || s.Req != 7 {
			t.Fatalf("bad span %+v", s)
		}
		ids[s.ID] = true
		if s.Name == "child" && s.Parent != root.ID() {
			t.Fatalf("child parent %d, want %d", s.Parent, root.ID())
		}
	}
	if len(r.Durations("child")) != 8 {
		t.Fatal("durations by name")
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 10 {
		t.Fatalf("%d lines written", len(lines))
	}
	var rec spanRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil || rec.Name != "child" || rec.SelfNs != rec.Duration() {
		t.Fatalf("first line %q: %v", lines[0], err)
	}
	if !strings.Contains(lines[9], `"work":16`) {
		t.Fatalf("counts line %q", lines[9])
	}
}
