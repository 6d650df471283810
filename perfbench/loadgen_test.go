package main

import (
	"context"
	"reflect"
	"testing"
	"time"
)

func TestScheduleDeterministic(t *testing.T) {
	block, widths := []int{6, 3, 1}, []int{1, 2, 1}
	a := Schedule(7, 50, 5*time.Second, block, widths)
	b := Schedule(7, 50, 5*time.Second, block, widths)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	c := Schedule(8, 50, 5*time.Second, block, widths)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if n := len(a); n < 225 || n > 275 {
		t.Fatalf("%d arrivals in 5 s at 50/s", n)
	}
	for i, x := range a {
		if x.Index != i || x.Due < 0 || x.Due >= 5*time.Second || (i > 0 && x.Due <= a[i-1].Due) {
			t.Fatalf("arrival %d malformed: %+v", i, x)
		}
		if x.Width != widths[x.Kind] {
			t.Fatalf("arrival %d kind %d has width %d", i, x.Kind, x.Width)
		}
	}
	// Every whole block of 10 arrivals holds the block's exact mix.
	for start := 0; start+10 <= len(a); start += 10 {
		var kinds [3]int
		for _, x := range a[start : start+10] {
			kinds[x.Kind]++
		}
		if kinds != [3]int{6, 3, 1} {
			t.Fatalf("block at %d has kinds %v, want [6 3 1]", start, kinds)
		}
	}
}

func TestScheduleRate(t *testing.T) {
	a := Schedule(3, 40, 20*time.Second, []int{1}, []int{1})
	if n := len(a); n < 780 || n > 820 {
		t.Fatalf("%d arrivals in 20 s at 40/s", n)
	}
	for i := 1; i < len(a); i++ {
		gap := a[i].Due - a[i-1].Due
		if gap < 12*time.Millisecond || gap > 38*time.Millisecond {
			t.Fatalf("gap %v outside [0.5, 1.5] x 25ms", gap)
		}
	}
}

func TestDriveTimesFromDueTime(t *testing.T) {
	// One connection, two requests due 1 ms apart, each taking 30 ms:
	// the second waits behind the first, and that wait is charged to its
	// latency and reported as lag.
	arrivals := []Arrival{{Index: 0, Due: 0, Width: 1}, {Index: 1, Due: time.Millisecond, Width: 1}}
	const service = 30 * time.Millisecond
	samples := Drive(context.Background(), time.Now(), arrivals, 1, func(context.Context, Arrival, int) bool {
		time.Sleep(service)
		return true
	})
	if len(samples) != 2 {
		t.Fatalf("got %d samples", len(samples))
	}
	first, second := samples[0], samples[1]
	if first.Latency() < service || first.Lag() > 10*time.Millisecond {
		t.Fatalf("first request: latency %v lag %v", first.Latency(), first.Lag())
	}
	if second.Lag() < service-2*time.Millisecond {
		t.Fatalf("second request lag %v, want at least the first's service time", second.Lag())
	}
	if second.Latency() < 2*service-2*time.Millisecond {
		t.Fatalf("second request latency %v, want queueing plus service from its due time", second.Latency())
	}
}

func TestDriveBoundsConnections(t *testing.T) {
	arrivals := make([]Arrival, 12)
	for i := range arrivals {
		arrivals[i] = Arrival{Index: i, Width: 1 + i%2}
	}
	var (
		live    = make(chan int, 64)
		maxLive int
	)
	inFlight := make(chan struct{}, 64)
	samples := Drive(context.Background(), time.Now(), arrivals, 2, func(context.Context, Arrival, int) bool {
		inFlight <- struct{}{}
		live <- len(inFlight)
		time.Sleep(2 * time.Millisecond)
		<-inFlight
		return true
	})
	close(live)
	for n := range live {
		maxLive = max(maxLive, n)
	}
	if maxLive > 2 {
		t.Fatalf("%d requests outstanding, limit 2", maxLive)
	}
	if len(samples) != 18 {
		t.Fatalf("got %d samples, want 18 (6 single + 6 pairs)", len(samples))
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		beyond int
	}{
		{5, 50, 2},
		{19, 50, 9},
		{20, 50, 10},
		{49, 50, 24},
		{50, 80, 10},
		{99, 80, 19},
		{100, 80, 20},
		{199, 80, 39},
		{200, 95, 10},
		{999, 95, 49},
		{1000, 99, 10},
		{10000, 99.9, 10},
	} {
		p, beyond := TailPercentile(tc.n)
		if p != tc.p || beyond != tc.beyond {
			t.Errorf("TailPercentile(%d) = p%v with %d beyond, want p%v with %d", tc.n, p, beyond, tc.p, tc.beyond)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {50, 2.5}, {75, 3.25}, {100, 4}} {
		if got := Percentile(xs, tc.p); got != tc.want {
			t.Errorf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty slice")
	}
}
