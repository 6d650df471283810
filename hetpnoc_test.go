package hetpnoc

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestRunDefaults(t *testing.T) {
	res, err := Run(Config{Cycles: 2500, WarmupCycles: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Architecture != "d-hetpnoc" {
		t.Fatalf("default architecture %q", res.Architecture)
	}
	if res.BandwidthSet != "BW1" {
		t.Fatalf("default set %q", res.BandwidthSet)
	}
	if res.Traffic != "uniform" {
		t.Fatalf("default traffic %q", res.Traffic)
	}
	if res.PacketsDelivered == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestRunValidation(t *testing.T) {
	bad := []Config{
		{Architecture: 99},
		{BandwidthSet: 7},
		{Traffic: Traffic{Kind: 99}},
		{Traffic: SkewedTraffic(4)},
		{Traffic: HotspotTraffic(1.5, 2)},
		{Traffic: HotspotTraffic(0.1, 9)},
	}
	for i, cfg := range bad {
		cfg.Cycles = 100
		cfg.WarmupCycles = 10
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestTrafficConstructors(t *testing.T) {
	tests := []struct {
		traffic Traffic
		name    string
	}{
		{UniformTraffic(), "uniform"},
		{SkewedTraffic(2), "skewed2"},
		{HotspotTraffic(0.1, 3), "skewed-hotspot0"}, // index unset: naming only
		{RealAppTraffic(), "realapp"},
	}
	for _, tt := range tests {
		p, err := tt.traffic.toPattern()
		if err != nil {
			t.Fatalf("%+v: %v", tt.traffic, err)
		}
		if got := p.Name(); got != tt.name {
			t.Errorf("pattern name %q, want %q", got, tt.name)
		}
	}
}

func TestCustomTraffic(t *testing.T) {
	specs := make([]CoreSpec, 64)
	// Core 0 sends to cores 8 and 9 (cluster 2); everyone else idle.
	specs[0] = CoreSpec{RateGbps: 50, DemandGbps: 50, Dests: []int{8, 9}}

	res, err := Run(Config{
		Traffic: CustomTraffic(specs),
		Cycles:  3000, WarmupCycles: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PacketsDelivered == 0 {
		t.Fatal("custom traffic delivered nothing")
	}
	// Only cluster 0's write channel should have been busy.
	for cl, busy := range res.ChannelBusyFraction {
		if cl == 0 && busy == 0 {
			t.Fatal("source cluster channel never busy")
		}
		if cl != 0 && busy != 0 {
			t.Fatalf("cluster %d channel busy %.3f with no traffic", cl, busy)
		}
	}
}

func TestCustomTrafficValidation(t *testing.T) {
	if _, err := Run(Config{Traffic: CustomTraffic(make([]CoreSpec, 3)), Cycles: 100, WarmupCycles: 10}); err == nil {
		t.Error("short spec list accepted")
	}
	specs := make([]CoreSpec, 64)
	specs[5] = CoreSpec{RateGbps: 10, Dests: []int{5}} // self
	if _, err := Run(Config{Traffic: CustomTraffic(specs), Cycles: 100, WarmupCycles: 10}); err == nil {
		t.Error("self-destination accepted")
	}
	specs[5] = CoreSpec{RateGbps: 10, Dests: []int{200}} // off chip
	if _, err := Run(Config{Traffic: CustomTraffic(specs), Cycles: 100, WarmupCycles: 10}); err == nil {
		t.Error("off-chip destination accepted")
	}
}

func TestRunWithTraceObservesRemap(t *testing.T) {
	var snapshots []Snapshot
	res, err := RunWithTrace(
		Config{
			Architecture: DHetPNoC,
			Traffic:      UniformTraffic(),
			Cycles:       5000, WarmupCycles: 500, Seed: 1,
		},
		[]TrafficRemap{{AtCycle: 2500, Traffic: SkewedTraffic(3)}},
		500,
		func(s Snapshot) { snapshots = append(snapshots, s) },
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(snapshots) != 10 {
		t.Fatalf("observed %d snapshots, want 10", len(snapshots))
	}
	// Before the remap the allocation is uniform; at the end it is not.
	early := snapshots[2]
	for _, n := range early.AllocatedWavelengths {
		if n != 4 {
			t.Fatalf("allocation %v not uniform before remap", early.AllocatedWavelengths)
		}
	}
	last := snapshots[len(snapshots)-1]
	uniform := true
	for _, n := range last.AllocatedWavelengths {
		if n != last.AllocatedWavelengths[0] {
			uniform = false
		}
	}
	if uniform {
		t.Fatalf("allocation %v still uniform after remap", last.AllocatedWavelengths)
	}
	if last.TokenRotations == 0 {
		t.Fatal("no token rotations observed")
	}
	if res.PacketsDelivered == 0 {
		t.Fatal("trace run delivered nothing")
	}
}

func TestRunWithTraceValidation(t *testing.T) {
	if _, err := RunWithTrace(Config{}, nil, 0, nil); err == nil {
		t.Fatal("zero interval accepted")
	}
	if _, err := RunWithTrace(Config{Cycles: 100, WarmupCycles: 10},
		[]TrafficRemap{{AtCycle: 50, Traffic: SkewedTraffic(9)}}, 10, nil); err == nil {
		t.Fatal("bad remap traffic accepted")
	}
}

// TestRunWithTraceMatchesRunContext: without remaps a traced run is the
// same simulation as RunContext, so its result — event log included —
// must be identical, whatever the observation interval.
func TestRunWithTraceMatchesRunContext(t *testing.T) {
	cfg := Config{Traffic: SkewedTraffic(2), Cycles: 3000, WarmupCycles: 300, Seed: 4, EventCapacity: 64}
	want, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Events) == 0 {
		t.Fatal("event log empty; the comparison would not cover it")
	}
	for _, interval := range []int64{1, 700, 1 << 40} {
		got, err := RunWithTrace(cfg, nil, interval, func(Snapshot) {})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("interval %d: traced result differs from RunContext\ngot  %+v\nwant %+v", interval, got, want)
		}
	}
}

// TestRunWithTraceContextCancel: canceling from the observer stops the
// run at once with context.Canceled and no further snapshots.
func TestRunWithTraceContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cycles []int64
	_, err := RunWithTraceContext(ctx, Config{Cycles: 1_000_000, WarmupCycles: 100, Seed: 1}, nil, 500,
		func(s Snapshot) {
			cycles = append(cycles, s.Cycle)
			if len(cycles) == 2 {
				cancel()
			}
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if want := []int64{500, 1000}; !reflect.DeepEqual(cycles, want) {
		t.Fatalf("observed cycles %v, want %v", cycles, want)
	}
}

// TestEstimateAreaHeadline checks the public area API against the §3.4.3
// headline numbers.
func TestEstimateAreaHeadline(t *testing.T) {
	est, err := EstimateArea(64)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(est.DHetPNoCAreaMM2)-1.608) > 0.002 {
		t.Errorf("d-HetPNoC area %.4f, thesis says 1.608", est.DHetPNoCAreaMM2)
	}
	if math.Abs(float64(est.FireflyAreaMM2)-1.367) > 0.002 {
		t.Errorf("Firefly area %.4f, thesis says 1.367", est.FireflyAreaMM2)
	}
	if est.DHetPNoCModulators != 3072 || est.FireflyModulators != 1088 {
		t.Errorf("modulator counts %d/%d, want 3072/1088",
			est.DHetPNoCModulators, est.FireflyModulators)
	}
	if _, err := EstimateArea(0); err == nil {
		t.Error("zero wavelengths accepted")
	}
}

func TestGPUFlitSizeSpeedups(t *testing.T) {
	speedups, err := GPUFlitSizeSpeedups()
	if err != nil {
		t.Fatal(err)
	}
	var maxPct float64
	for _, s := range speedups {
		if s.SpeedupPct > maxPct {
			maxPct = s.SpeedupPct
		}
	}
	if math.Abs(maxPct-63) > 2 {
		t.Fatalf("max GPU speedup %.1f%%, thesis says up to 63%%", maxPct)
	}
}

func TestArchitectureStrings(t *testing.T) {
	if Firefly.String() != "firefly" || DHetPNoC.String() != "d-hetpnoc" {
		t.Fatal("architecture names wrong")
	}
	if Architecture(0).String() != "unknown" {
		t.Fatal("zero architecture should be unknown")
	}
}

// TestEventLogSurfacesProtocolActivity: with EventCapacity set, the result
// carries reservations, arrivals and allocation changes.
func TestEventLogSurfacesProtocolActivity(t *testing.T) {
	res, err := Run(Config{
		Architecture:  DHetPNoC,
		Traffic:       SkewedTraffic(2),
		Cycles:        2500,
		WarmupCycles:  500,
		EventCapacity: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) == 0 {
		t.Fatal("no events captured")
	}
	var sawReservation, sawArrival, sawAlloc, sawDelivered bool
	for _, e := range res.Events {
		switch {
		case strings.Contains(e, "reservation"):
			sawReservation = true
		case strings.Contains(e, "packet-arrived"):
			sawArrival = true
		case strings.Contains(e, "allocation-changed"):
			sawAlloc = true
		case strings.Contains(e, "packet-delivered"):
			sawDelivered = true
		}
	}
	if !sawReservation || !sawArrival || !sawDelivered {
		t.Fatalf("missing transfer events (reservation=%v arrival=%v delivered=%v)",
			sawReservation, sawArrival, sawDelivered)
	}
	if !sawAlloc {
		t.Fatal("no allocation-changed events from the DBA under skewed traffic")
	}
}

// TestPermutationTrafficThroughPublicAPI: the neighbor permutation — the
// torus's friendliest pattern — flows on all three architectures.
func TestPermutationTrafficThroughPublicAPI(t *testing.T) {
	for _, arch := range []Architecture{Firefly, DHetPNoC, TorusPNoC} {
		res, err := Run(Config{
			Architecture: arch,
			Traffic:      PermutationTraffic("neighbor"),
			Cycles:       2500,
			WarmupCycles: 500,
		})
		if err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
		if res.PacketsDelivered == 0 {
			t.Fatalf("%v delivered nothing under neighbor traffic", arch)
		}
	}
	if _, err := Run(Config{Traffic: PermutationTraffic("bogus"), Cycles: 100, WarmupCycles: 10}); err == nil {
		t.Fatal("unknown permutation accepted")
	}
}

// TestProportionalDBAThroughPublicAPI: the future-work policy runs end to
// end and still beats Firefly under skew.
func TestProportionalDBAThroughPublicAPI(t *testing.T) {
	prop, err := Run(Config{
		Architecture:    DHetPNoC,
		Traffic:         SkewedTraffic(2),
		ProportionalDBA: true,
		Cycles:          2500, WarmupCycles: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	ff, err := Run(Config{
		Architecture: Firefly,
		Traffic:      SkewedTraffic(2),
		Cycles:       2500, WarmupCycles: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if prop.DeliveredGbps <= ff.DeliveredGbps {
		t.Fatalf("proportional d-HetPNoC %.1f Gb/s not above Firefly %.1f",
			prop.DeliveredGbps, ff.DeliveredGbps)
	}
}

// TestLatencyPercentilesExposed: the public result carries the latency
// distribution summary.
func TestLatencyPercentilesExposed(t *testing.T) {
	res, err := Run(Config{Traffic: SkewedTraffic(2), Cycles: 2500, WarmupCycles: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.P50LatencyCycles <= 0 || res.P99LatencyCycles < res.P50LatencyCycles ||
		res.MaxLatencyCycles < res.P99LatencyCycles {
		t.Fatalf("latency percentiles inconsistent: p50=%d p99=%d max=%d",
			res.P50LatencyCycles, res.P99LatencyCycles, res.MaxLatencyCycles)
	}
}

// TestLinkBudgets: the public budget API reflects the [23] crosstalk
// asymmetry between the crossbar and the torus.
func TestLinkBudgets(t *testing.T) {
	xbar, err := CrossbarLinkBudget()
	if err != nil {
		t.Fatal(err)
	}
	torus, err := TorusLinkBudget()
	if err != nil {
		t.Fatal(err)
	}
	if xbar.TotalDB <= 0 || torus.TotalDB <= 0 {
		t.Fatal("budgets empty")
	}
	if torus.CrosstalkDB <= xbar.CrosstalkDB {
		t.Fatal("torus crosstalk not above crossbar crosstalk")
	}
	if torus.LaserPowerMW <= xbar.LaserPowerMW {
		t.Fatal("torus laser power not above crossbar")
	}
}

// TestBurstyTrafficThroughPublicAPI: bursty skewed traffic runs end to end
// and raises latency over the smooth equivalent.
func TestBurstyTrafficThroughPublicAPI(t *testing.T) {
	smooth, err := Run(Config{Traffic: SkewedTraffic(2), Cycles: 2500, WarmupCycles: 500})
	if err != nil {
		t.Fatal(err)
	}
	bursty := SkewedTraffic(2)
	bursty.Burstiness = 16
	b, err := Run(Config{Traffic: bursty, Cycles: 2500, WarmupCycles: 500})
	if err != nil {
		t.Fatal(err)
	}
	if b.Traffic != "skewed2-bursty16" {
		t.Fatalf("bursty traffic named %q", b.Traffic)
	}
	if b.AvgLatencyCycles < smooth.AvgLatencyCycles {
		t.Fatalf("bursty latency %.1f below smooth %.1f", b.AvgLatencyCycles, smooth.AvgLatencyCycles)
	}
	if _, err := Run(Config{Traffic: Traffic{Kind: UniformRandom, Burstiness: -2}, Cycles: 100, WarmupCycles: 10}); err == nil {
		t.Fatal("negative burstiness accepted")
	}
}
