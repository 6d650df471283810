package main

import (
	"context"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"time"
)

// Arrival is one scheduled request of an open-loop load. Width is how
// many identical requests it issues at once (a coalescing pair has 2);
// Kind is its request kind and Draw a random value for choosing its
// content, so the whole stream follows from the schedule seed.
type Arrival struct {
	Index int
	Due   time.Duration
	Kind  int
	Width int
	Draw  uint64
}

// Schedule draws an arrival stream at a fixed mean rate (requests per
// second) over window. Gaps between arrivals are uniform on [0.5, 1.5]
// times the mean gap, so bursts stay small and the queueing a run sees
// depends little on the seed. Kinds are dealt from shuffled blocks holding
// block[k] arrivals of kind k, so every run carries the same mix up to its
// last partial block; widths[kind] sets an arrival's width. The same seed
// gives the same stream.
func Schedule(seed uint64, rate float64, window time.Duration, block []int, widths []int) []Arrival {
	rng := rand.New(rand.NewPCG(seed, 0x6f70656e6c6f6f70))
	var slots []int
	for kind, n := range block {
		for i := 0; i < n; i++ {
			slots = append(slots, kind)
		}
	}
	kinds := newDeck(rng, len(slots))
	var out []Arrival
	var t float64
	for {
		t += (0.5 + rng.Float64()) / rate
		due := time.Duration(t * float64(time.Second))
		if due >= window {
			return out
		}
		kind := slots[kinds.deal()]
		out = append(out, Arrival{Index: len(out), Due: due, Kind: kind, Width: widths[kind], Draw: rng.Uint64()})
	}
}

// deck deals 0..n-1 in a fresh shuffle per pass, so each pass holds every
// value exactly once.
type deck struct {
	rng   *rand.Rand
	order []int
	next  int
}

func newDeck(rng *rand.Rand, n int) *deck {
	return &deck{rng: rng, order: make([]int, n), next: n}
}

func (d *deck) deal() int {
	if d.next == len(d.order) {
		copy(d.order, d.rng.Perm(len(d.order)))
		d.next = 0
	}
	d.next++
	return d.order[d.next-1]
}

// Sample is the timing of one request of an arrival: Member numbers the
// requests of a wide arrival. Latency runs from the due time, so a stall
// that delays later sends is charged to them; Lag is how late the
// generator sent.
type Sample struct {
	Index  int
	Member int
	Due    time.Duration
	Sent   time.Duration
	Done   time.Duration
	OK     bool
}

// Latency is the time from the request's due time to its reply.
func (s Sample) Latency() time.Duration { return s.Done - s.Due }

// Lag is how late the generator sent the request.
func (s Sample) Lag() time.Duration { return s.Sent - s.Due }

// Drive sends every arrival at its due time, measured from start, with at
// most conns requests outstanding: an arrival waits until Width slots
// are free, and later arrivals queue behind it in schedule order. send
// performs one request and reports whether its reply was good. Drive
// returns once every sent request has completed; arrivals not yet sent
// when ctx ends are dropped.
func Drive(ctx context.Context, start time.Time, arrivals []Arrival, conns int, send func(ctx context.Context, a Arrival, member int) bool) []Sample {
	slots := make(chan struct{}, conns)
	var (
		mu      sync.Mutex
		samples []Sample
		wg      sync.WaitGroup
	)
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
dispatch:
	for _, a := range arrivals {
		if wait := a.Due - time.Since(start); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break dispatch
			}
		}
		for k := 0; k < a.Width; k++ {
			select {
			case slots <- struct{}{}:
			case <-ctx.Done():
				for ; k > 0; k-- {
					<-slots
				}
				break dispatch
			}
		}
		sent := time.Since(start)
		wg.Add(a.Width)
		for k := 0; k < a.Width; k++ {
			go func(a Arrival, k int) {
				defer wg.Done()
				ok := send(ctx, a, k)
				s := Sample{Index: a.Index, Member: k, Due: a.Due, Sent: sent, Done: time.Since(start), OK: ok}
				<-slots
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}(a, k)
		}
	}
	wg.Wait()
	sort.Slice(samples, func(i, j int) bool {
		if samples[i].Index != samples[j].Index {
			return samples[i].Index < samples[j].Index
		}
		return samples[i].Member < samples[j].Member
	})
	return samples
}

// Percentile returns the p-th percentile (0-100) of xs by linear
// interpolation between closest ranks; xs need not be sorted. It returns
// 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailRungs are the percentiles a tail may be reported at, highest first.
//
// There is no p75: over a closed-loop rotation of four configs it would
// fall exactly on the gap between the two slowest configs' times. There is
// no p90 either: its threshold of 100 samples sits inside the range of op
// counts one run-saturated window yields, so the rung would flip between
// runs.
var tailRungs = []float64{99.9, 99, 95, 80, 50}

// minBeyond is how many samples must lie beyond a reported tail.
const minBeyond = 10

// TailPercentile picks the highest rung with at least minBeyond of n
// samples beyond it, and returns it with that count. Below 2*minBeyond
// samples no rung above the median qualifies; it then returns the median
// and the (too small) count beyond it, which the output reports as is.
func TailPercentile(n int) (p float64, beyond int) {
	for _, r := range tailRungs {
		b := int(math.Floor(float64(n)*(1-r/100) + 1e-9))
		if b >= minBeyond {
			return r, b
		}
	}
	return 50, n / 2
}
