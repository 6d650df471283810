package main

import (
	"context"
	"fmt"
	"time"

	"hetpnoc"
	"hetpnoc/internal/fabric"
	"hetpnoc/internal/topology"
	"hetpnoc/internal/traffic"
)

// satSpec is one config of the run-saturated rotation: full Table 3-3
// length, skewed traffic at or past saturation.
type satSpec struct {
	name string
	arch hetpnoc.Architecture
	set  int
	skew int
	load float64
}

// saturatedSpecs is the rotation {d-HetPNoC, Firefly} x {BW1 skewed-2 at
// load 2, BW3 skewed-3 at load 1}.
var saturatedSpecs = []satSpec{
	{"dhetpnoc-bw1-s2", hetpnoc.DHetPNoC, 1, 2, 2},
	{"dhetpnoc-bw3-s3", hetpnoc.DHetPNoC, 3, 3, 1},
	{"firefly-bw1-s2", hetpnoc.Firefly, 1, 2, 2},
	{"firefly-bw3-s3", hetpnoc.Firefly, 3, 3, 1},
}

const (
	satCycles = 10000
	satWarmup = 1000
	// satLimit is the run-saturated latency limit for goodput.
	satLimit = 5 * time.Second
)

func (s satSpec) config(seed uint64) hetpnoc.Config {
	return hetpnoc.Config{
		Architecture: s.arch, BandwidthSet: s.set, Traffic: hetpnoc.SkewedTraffic(s.skew),
		LoadScale: s.load, Cycles: satCycles, WarmupCycles: satWarmup, Seed: seed,
	}
}

// fabricConfig lowers a public config the way hetpnoc.Run does, for the
// traced path that drives the fabric directly. It covers the fields the
// benchmark's configs set.
func fabricConfig(c hetpnoc.Config) fabric.Config {
	c = c.Normalized()
	arch := fabric.DHetPNoC
	if c.Architecture == hetpnoc.Firefly {
		arch = fabric.Firefly
	}
	var pattern traffic.Pattern = traffic.Uniform{}
	if c.Traffic.Kind == hetpnoc.SkewedKind {
		pattern = traffic.Skewed{Level: c.Traffic.SkewLevel}
	}
	return fabric.Config{
		Topology: topology.Default(), Arch: arch, Set: traffic.BandwidthSets()[c.BandwidthSet-1],
		Pattern: pattern, LoadScale: c.LoadScale, Cycles: c.Cycles, WarmupCycles: c.WarmupCycles,
		Seed: c.Seed, IntraCluster: fabric.AllToAll,
	}
}

// driveFabric runs one config through the fabric's public calls with a
// span around each: build, warm-up steps, measured steps, finish.
func driveFabric(ctx context.Context, rec *Recorder, parent SpanID, req uint64, fc fabric.Config) (summary, error) {
	b := rec.Start("fabric.build", parent, req)
	f, err := fabric.New(fc)
	b.End()
	if err != nil {
		return summary{}, err
	}
	if err := stepSpans(ctx, rec, parent, req, f, fc.WarmupCycles, fc.Cycles-fc.WarmupCycles); err != nil {
		return summary{}, err
	}
	fin := rec.Start("fabric.finish", parent, req)
	res, err := f.Finish()
	fin.End()
	return fabricSummary(res), err
}

// stepSpans steps f through warm-up and measurement with one span each,
// counting the cycles and the packets delivered in the measured window.
func stepSpans(ctx context.Context, rec *Recorder, parent SpanID, req uint64, f *fabric.Fabric, warm, measure int) error {
	w := rec.Start("fabric.warmup", parent, req)
	err := f.StepContext(ctx, warm)
	w.End()
	if err != nil {
		return err
	}
	s := rec.Start("fabric.step", parent, req)
	err = f.StepContext(ctx, measure)
	s.End()
	rec.Add("fabric.warmup.cycles", int64(warm))
	rec.Add("fabric.step.cycles", int64(measure))
	rec.Add("fabric.step.packets", f.DeliveredPackets())
	return err
}

// saturated is run-saturated set up: the rotation's configs.
type saturated struct{ cfgs []hetpnoc.Config }

// setupSaturated derives and validates the rotation's configs; each op
// pays its own fabric build.
func setupSaturated(_ context.Context, e *env) (instance, error) {
	s := &saturated{}
	for i, sp := range saturatedSpecs {
		cfg := sp.config(e.derive(uint64(i)))
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		s.cfgs = append(s.cfgs, cfg)
	}
	return s, nil
}

func (*saturated) close() {}

// measure is a closed loop with one caller: sequential RunContext calls
// over the rotation. A traced run alternates untraced rotations with
// rotations that drive the same configs through the fabric calls.
func (s *saturated) measure(ctx context.Context, e *env) (*measured, error) {
	m := newMeasured()
	cfgs := s.cfgs
	first := make([]string, len(cfgs))
	m.opsByConfig = make([][]time.Duration, len(cfgs))
	m.tracedByConfig = make([][]time.Duration, len(cfgs))
	var errs []string
	var lagMax time.Duration
	due := time.Now()
	w := openWindow()
	for round := 0; time.Since(w.start) < e.window; round++ {
		traced := e.rec != nil && round%2 == 1
		for i, cfg := range cfgs {
			req := uint64(round*len(cfgs) + i + 1)
			m.attempted++
			t := time.Now()
			lagMax = max(lagMax, t.Sub(due))
			var sum summary
			var err error
			if traced {
				op := e.rec.Start("op.run", 0, req)
				sum, err = driveFabric(ctx, e.rec, op.ID(), req, fabricConfig(cfg))
				op.End()
			} else {
				var res hetpnoc.Result
				res, err = hetpnoc.RunContext(ctx, cfg)
				sum = publicSummary(res)
			}
			d := time.Since(t)
			if traced {
				m.tracedOps = append(m.tracedOps, d)
				m.tracedByConfig[i] = append(m.tracedByConfig[i], d)
			} else {
				m.ops = append(m.ops, d)
				m.opsByConfig[i] = append(m.opsByConfig[i], d)
			}
			if err != nil {
				m.failed++
				errs = append(errs, fmt.Sprintf("%s: %v", saturatedSpecs[i].name, err))
				due = time.Now()
				continue
			}
			m.cycles += satCycles
			name := saturatedSpecs[i].name
			dg := sum.digest()
			ok := true
			if first[i] == "" {
				first[i] = dg
				m.digests[name] = dg
				simCounts(m, name, sum)
			} else {
				ok = e.check.expect(fmt.Sprintf("%s op %d (traced=%v)", name, req, traced), dg, first[i])
			}
			if ok && d <= satLimit {
				m.good++
			}
			due = time.Now()
		}
	}
	w.close(m)
	m.layers["loadgen.lag_ms_max"] = millis(lagMax)
	perConfig := map[string]float64{}
	for i, ops := range m.opsByConfig {
		perConfig[saturatedSpecs[i].name] = Percentile(millisAll(ops), 50)
	}
	m.meta["op_p50_ms_by_config"] = perConfig
	m.meta["errors"] = errs
	m.meta["latency_limit_ms"] = millis(satLimit)
	return m, nil
}

// simCounts records one rotation config's simulated counts.
func simCounts(m *measured, name string, s summary) {
	var busy float64
	for _, b := range s.ChannelBusyFraction {
		busy += b
	}
	if n := len(s.ChannelBusyFraction); n > 0 {
		busy /= float64(n)
	}
	for k, v := range map[string]float64{
		"traffic.packets_injected":    float64(s.PacketsInjected),
		"traffic.packets_rejected":    float64(s.PacketsRejected),
		"stats.packets_delivered":     float64(s.PacketsDelivered),
		"stats.latency_p99_cycles":    float64(s.P99LatencyCycles),
		"xbar.packets_dropped_rx":     float64(s.PacketsDroppedRX),
		"xbar.channel_busy_frac_mean": busy,
		"core.token_rotations":        float64(s.TokenRotations),
		"fabric.retransmissions":      float64(s.Retransmissions),
		"router.switch_energy_pj":     float64(s.EnergyBreakdownPJ["router"]),
		"router.buffer_residency_pj":  float64(s.EnergyBreakdownPJ["buffer-residency"]),
	} {
		m.layers[k+"."+name] = v
	}
}
