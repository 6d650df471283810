package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hetpnoc"
	"hetpnoc/internal/batch"
	"hetpnoc/internal/experiments"
	"hetpnoc/internal/fabric"
	"hetpnoc/internal/topology"
	"hetpnoc/internal/traffic"
)

const (
	matrixCycles = 4000
	matrixWarmup = 800
	// matrixLimit is the matrix-sweep latency limit for goodput.
	matrixLimit = 30 * time.Second
)

var matrixScales = []float64{0.25, 0.5, 1, 2}

// matrixPoints is the Fig 3-3 matrix: {BW1, BW2} x {uniform, skewed-1..3}
// x {Firefly, d-HetPNoC}.
func matrixPoints() []experiments.Point {
	var pts []experiments.Point
	for _, set := range []traffic.BandwidthSet{traffic.BWSet1, traffic.BWSet2} {
		for _, p := range []traffic.Pattern{traffic.Uniform{}, traffic.Skewed{Level: 1}, traffic.Skewed{Level: 2}, traffic.Skewed{Level: 3}} {
			for _, a := range []fabric.Arch{fabric.Firefly, fabric.DHetPNoC} {
				pts = append(pts, experiments.Point{Set: set, Pattern: p, Arch: a})
			}
		}
	}
	return pts
}

// matrixSpecs lists the plan members RunMatrix builds: every point at
// every load scale, point-major.
func matrixSpecs(opts experiments.Options, pts []experiments.Point) []fabric.Config {
	var specs []fabric.Config
	for _, p := range pts {
		for _, s := range opts.LoadScales {
			specs = append(specs, fabric.Config{
				Topology: topology.Default(), Set: p.Set, Arch: p.Arch, Pattern: p.Pattern,
				LoadScale: s, Cycles: opts.Cycles, WarmupCycles: opts.WarmupCycles, Seed: opts.Seed,
			})
		}
	}
	return specs
}

// rowFrom shapes one result into the row RunMatrix reports for its point.
func rowFrom(set, pattern, arch string, load float64, s summary) experiments.Row {
	return experiments.Row{
		Set: set, Pattern: pattern, Arch: arch, AtLoad: load,
		PeakBandwidthGbps: s.DeliveredGbps, PerCoreGbps: s.PerCoreGbps,
		EnergyPerMessagePJ: s.EnergyPerMessagePJ, OfferedGbps: s.OfferedGbps,
		PacketsDelivered: s.PacketsDelivered, PacketsDropped: s.PacketsDroppedRX,
		Retransmissions: s.Retransmissions, AvgLatencyCycles: s.AvgLatencyCycles,
		AllocatedWavelengths: s.AllocatedWavelengths,
	}
}

// peakRows picks each point's row at the load scale that delivered most,
// the first such scale on a tie, as RunMatrix does.
func peakRows(pts []experiments.Point, scales []float64, res []summary) []experiments.Row {
	rows := make([]experiments.Row, len(pts))
	for pi, p := range pts {
		best := -1
		for si := range scales {
			if best < 0 || res[pi*len(scales)+si].DeliveredGbps > res[pi*len(scales)+best].DeliveredGbps {
				best = si
			}
		}
		rows[pi] = rowFrom(p.Set.Name, p.Pattern.Name(), p.Arch.String(), scales[best], res[pi*len(scales)+best])
	}
	return rows
}

// matrixSweep is matrix-sweep set up: the matrix points, the RunMatrix
// options and the plan members they expand to.
type matrixSweep struct {
	opts  experiments.Options
	pts   []experiments.Point
	specs []fabric.Config
}

// setupMatrixSweep derives and validates every member; each RunMatrix call
// builds its own fabrics.
func setupMatrixSweep(_ context.Context, e *env) (instance, error) {
	pts := matrixPoints()
	opts := experiments.Options{Cycles: matrixCycles, WarmupCycles: matrixWarmup, Seed: e.derive(0),
		LoadScales: matrixScales, Parallelism: e.nproc}
	specs := matrixSpecs(opts, pts)
	for _, spec := range specs {
		if err := spec.WithDefaults().Validate(); err != nil {
			return nil, err
		}
	}
	return &matrixSweep{opts: opts, pts: pts, specs: specs}, nil
}

func (*matrixSweep) close() {}

// measure is a closed loop with one caller: RunMatrix over the whole
// matrix with Parallelism = nproc. A traced run alternates untraced calls
// with calls that drive the same members through batch.NewPlan and
// Plan.Run, and after each traced call replays one prefix group through
// the fabric's build, checkpoint and restore calls.
func (s *matrixSweep) measure(ctx context.Context, e *env) (*measured, error) {
	m := newMeasured()
	opts, pts, specs := s.opts, s.pts, s.specs
	cyclesPerOp := int64(len(specs) * matrixCycles)

	var (
		firstRows string
		errs      []string
		lagMax    time.Duration
		cpuUtil   []float64
		stats     batch.Stats
	)
	due := time.Now()
	w := openWindow()
	for op := 0; time.Since(w.start) < e.window; op++ {
		traced := e.rec != nil && op%2 == 1
		req := uint64(op + 1)
		m.attempted++
		t := time.Now()
		lagMax = max(lagMax, t.Sub(due))
		var (
			rows    []experiments.Row
			members []summary
			err     error
		)
		if traced {
			sp := e.rec.Start("op.matrix", 0, req)
			var util float64
			members, stats, util, err = tracedPlan(ctx, e, sp.ID(), req, specs)
			if err == nil {
				rows = peakRows(pts, matrixScales, members)
				cpuUtil = append(cpuUtil, util)
			}
			sp.End()
		} else {
			rows, err = experiments.RunMatrixContext(ctx, opts, pts)
		}
		d := time.Since(t)
		if traced {
			m.tracedOps = append(m.tracedOps, d)
		} else {
			m.ops = append(m.ops, d)
		}
		if err != nil {
			m.failed++
			errs = append(errs, err.Error())
			due = time.Now()
			continue
		}
		m.cycles += cyclesPerOp
		dg := digestJSON(rows)
		ok := true
		if firstRows == "" {
			firstRows = dg
			m.digests["rows"] = dg
		} else {
			ok = e.check.expect(fmt.Sprintf("matrix op %d (traced=%v)", req, traced), dg, firstRows)
		}
		if ok && d <= matrixLimit {
			m.good++
		}
		if traced {
			g := (op / 2) % len(pts)
			forkGroup(ctx, e, req, specs[g*len(matrixScales):(g+1)*len(matrixScales)], members[g*len(matrixScales):])
		}
		due = time.Now()
	}
	w.close(m)

	if firstRows != "" {
		want, err := standaloneRows(ctx, e.nproc, opts, pts)
		if err != nil {
			return nil, err
		}
		e.check.expect("matrix rows vs standalone hetpnoc.Run", firstRows, digestJSON(want))
	}
	m.layers["batch.groups"] = float64(stats.Groups)
	m.layers["batch.members"] = float64(stats.Members)
	m.layers["batch.cpu_util"] = Percentile(cpuUtil, 50)
	m.layers["loadgen.lag_ms_max"] = millis(lagMax)
	m.meta["errors"] = errs
	m.meta["latency_limit_ms"] = millis(matrixLimit)
	return m, nil
}

// tracedPlan runs the matrix members through batch.NewPlan and Plan.Run,
// with spans around both, and reports the CPU utilisation inside Run.
func tracedPlan(ctx context.Context, e *env, parent SpanID, req uint64, specs []fabric.Config) ([]summary, batch.Stats, float64, error) {
	sp := e.rec.Start("batch.plan", parent, req)
	plan, err := batch.NewPlan(specs, batch.Options{Workers: e.nproc})
	sp.End()
	if err != nil {
		return nil, batch.Stats{}, 0, err
	}
	cpu0, t0 := processCPU(), time.Now()
	sp = e.rec.Start("batch.run", parent, req)
	out, err := plan.Run(ctx)
	sp.End()
	util := (processCPU() - cpu0).Seconds() / (time.Since(t0).Seconds() * float64(e.nproc))
	if err != nil {
		return nil, batch.Stats{}, 0, err
	}
	res := make([]summary, len(out))
	for i, r := range out {
		res[i] = fabricSummary(r.Res)
	}
	return res, plan.Stats(), util, nil
}

// forkGroup replays one prefix group the way the batch engine runs it
// (build once, checkpoint at cycle 0, then restore, set the load, reseed
// and step per member) with a span around each fabric call, and checks
// each member against the batch engine's result for it.
func forkGroup(ctx context.Context, e *env, req uint64, group []fabric.Config, want []summary) {
	rec := e.rec
	root := rec.Start("fork.group", 0, req)
	defer root.End()
	sp := rec.Start("fabric.build", root.ID(), req)
	f, err := fabric.New(group[0])
	sp.End()
	if err != nil {
		e.check.failf("fork group build: %v", err)
		return
	}
	sp = rec.Start("fabric.checkpoint", root.ID(), req)
	cp := f.Checkpoint()
	sp.End()
	for k, spec := range group {
		sp = rec.Start("fabric.restore", root.ID(), req)
		err := f.Restore(cp)
		if err == nil {
			err = f.SetLoadScale(spec.LoadScale)
		}
		if err == nil {
			err = f.Reseed(spec.Seed)
		}
		sp.End()
		if err == nil {
			err = stepSpans(ctx, rec, root.ID(), req, f, spec.WarmupCycles, spec.Cycles-spec.WarmupCycles)
		}
		if err != nil {
			e.check.failf("fork group member %d: %v", k, err)
			return
		}
		sp = rec.Start("fabric.finish", root.ID(), req)
		res, err := f.Finish()
		sp.End()
		if err != nil {
			e.check.failf("fork group member %d finish: %v", k, err)
			return
		}
		e.check.expect(fmt.Sprintf("fork member %d vs Plan.Run", k), fabricSummary(res).digest(), want[k].digest())
	}
}

// standaloneRows runs every matrix member on its own through hetpnoc.Run,
// nproc at a time, and shapes the peak rows from the results.
func standaloneRows(ctx context.Context, workers int, opts experiments.Options, pts []experiments.Point) ([]experiments.Row, error) {
	var cfgs []hetpnoc.Config
	for _, p := range pts {
		arch := hetpnoc.DHetPNoC
		if p.Arch == fabric.Firefly {
			arch = hetpnoc.Firefly
		}
		tr := hetpnoc.UniformTraffic()
		if s, ok := p.Pattern.(traffic.Skewed); ok {
			tr = hetpnoc.SkewedTraffic(s.Level)
		}
		set := 1
		if p.Set.Name == traffic.BWSet2.Name {
			set = 2
		}
		for _, scale := range opts.LoadScales {
			cfgs = append(cfgs, hetpnoc.Config{Architecture: arch, BandwidthSet: set, Traffic: tr, LoadScale: scale,
				Cycles: opts.Cycles, WarmupCycles: opts.WarmupCycles, Seed: opts.Seed})
		}
	}
	res, err := runAll(ctx, workers, cfgs)
	if err != nil {
		return nil, err
	}
	return peakRows(pts, opts.LoadScales, res), nil
}

// runAll runs each config through hetpnoc.RunContext, workers at a time.
func runAll(ctx context.Context, workers int, cfgs []hetpnoc.Config) ([]summary, error) {
	out := make([]summary, len(cfgs))
	errs := make([]error, len(cfgs))
	next := make(chan int, len(cfgs))
	for i := range cfgs {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				r, err := hetpnoc.RunContext(ctx, cfgs[i])
				out[i], errs[i] = publicSummary(r), err
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
