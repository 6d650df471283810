package hetpnoc

import (
	"context"
	"fmt"

	"hetpnoc/internal/fabric"
	"hetpnoc/internal/sim"
	"hetpnoc/internal/topology"
)

// Snapshot is a point-in-time view of a running simulation, delivered to
// RunWithTrace observers.
type Snapshot struct {
	Cycle int64

	// AllocatedWavelengths is the current per-cluster write-channel
	// allocation.
	AllocatedWavelengths []int

	// TokenRotations counts completed DBA token rotations so far.
	TokenRotations int64

	// PacketsDelivered counts packets delivered since the warm-up ended.
	PacketsDelivered int64
}

// TrafficRemap changes the workload mid-run: at cycle AtCycle the task
// mapping switches to Traffic and every core re-reports its demand table,
// triggering DBA reconfiguration on the following token rotations (§3.2).
type TrafficRemap struct {
	AtCycle int64
	Traffic Traffic
}

// RunWithTrace simulates cfg like Run, optionally applying remaps, and
// invokes observe with a snapshot every interval cycles. Use it to watch
// the dynamic bandwidth allocation converge and react to task changes.
//
//hetpnoc:ctxroot synchronous public entry point, wraps RunWithTraceContext
func RunWithTrace(cfg Config, remaps []TrafficRemap, interval int64, observe func(Snapshot)) (Result, error) {
	return RunWithTraceContext(context.Background(), cfg, remaps, interval, observe)
}

// RunWithTraceContext is RunWithTrace honoring cancellation as RunContext
// does: it steps the fabric in chunks that end on every interval
// boundary, polls ctx within each chunk, and aborts with ctx.Err() when
// it fires. Snapshots and the result of a run that completes are
// identical to RunWithTrace's.
func RunWithTraceContext(ctx context.Context, cfg Config, remaps []TrafficRemap, interval int64, observe func(Snapshot)) (Result, error) {
	if interval <= 0 {
		return Result{}, fmt.Errorf("hetpnoc: trace interval must be positive, got %d", interval)
	}
	fc, err := cfg.toFabricConfig()
	if err != nil {
		return Result{}, err
	}
	for _, r := range remaps {
		pattern, err := r.Traffic.toPattern()
		if err != nil {
			return Result{}, err
		}
		fc.Remaps = append(fc.Remaps, fabric.Remap{At: sim.Cycle(r.AtCycle), Pattern: pattern})
	}

	f, err := fabric.New(fc)
	if err != nil {
		return Result{}, err
	}
	fc = fc.WithDefaults()
	for left := int64(fc.Cycles); left > 0; {
		chunk := min(interval-int64(f.Now())%interval, left)
		if err := f.StepContext(ctx, int(chunk)); err != nil {
			return Result{}, err
		}
		left -= chunk
		if observe != nil && int64(f.Now())%interval == 0 {
			observe(snapshotOf(f, fc.Topology))
		}
	}
	res, err := f.Finish()
	if err != nil {
		return Result{}, err
	}
	return resultOf(f, res), nil
}

// snapshotOf captures the observable state of a running fabric.
func snapshotOf(f *fabric.Fabric, topo topology.Topology) Snapshot {
	s := Snapshot{
		Cycle:                int64(f.Now()),
		AllocatedWavelengths: make([]int, topo.Clusters()),
		PacketsDelivered:     f.DeliveredPackets(),
	}
	if dba := f.DBA(); dba != nil {
		s.TokenRotations = dba.Rotations()
		for cl := range s.AllocatedWavelengths {
			s.AllocatedWavelengths[cl] = dba.AllocatedCount(topology.ClusterID(cl))
		}
	} else {
		for cl := range s.AllocatedWavelengths {
			s.AllocatedWavelengths[cl] = len(f.AllocatedOf(topology.ClusterID(cl)))
		}
	}
	return s
}
