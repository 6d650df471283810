package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"sync"

	"hetpnoc"
	"hetpnoc/internal/fabric"
	"hetpnoc/internal/units"
)

// summary is every measured field the public hetpnoc.Result and the
// internal fabric.Result share (hetpnoc copies them over one for one). Its
// digest identifies a simulated result whichever layer produced it, so a
// result reached through fabric calls can be checked against one reached
// through hetpnoc, the batch engine or the HTTP service.
type summary struct {
	DeliveredGbps        units.Gbps
	PerCoreGbps          units.Gbps
	OfferedGbps          units.Gbps
	EnergyPerMessagePJ   units.Picojoule
	EnergyTotalPJ        units.Picojoule
	EnergyPhotonicPJ     units.Picojoule
	EnergyElectricalPJ   units.Picojoule
	EnergyBreakdownPJ    map[string]units.Picojoule
	PacketsInjected      int64
	PacketsDelivered     int64
	PacketsDroppedRX     int64
	PacketsRejected      int64
	PacketsLost          int64
	Retransmissions      int64
	AvgLatencyCycles     float64
	P50LatencyCycles     int64
	P99LatencyCycles     int64
	MaxLatencyCycles     int64
	FairnessJain         float64
	AllocatedWavelengths []int
	TokenRotations       int64
	ChannelBusyFraction  []float64
	TorusPathsSetUp      int64
	TorusSetupsBlocked   int64
}

func publicSummary(r hetpnoc.Result) summary {
	return summary{
		DeliveredGbps: r.DeliveredGbps, PerCoreGbps: r.PerCoreGbps, OfferedGbps: r.OfferedGbps,
		EnergyPerMessagePJ: r.EnergyPerMessagePJ, EnergyTotalPJ: r.EnergyTotalPJ,
		EnergyPhotonicPJ: r.EnergyPhotonicPJ, EnergyElectricalPJ: r.EnergyElectricalPJ,
		EnergyBreakdownPJ: r.EnergyBreakdownPJ,
		PacketsInjected:   r.PacketsInjected, PacketsDelivered: r.PacketsDelivered,
		PacketsDroppedRX: r.PacketsDroppedRX, PacketsRejected: r.PacketsRejected,
		PacketsLost: r.PacketsLost, Retransmissions: r.Retransmissions,
		AvgLatencyCycles: r.AvgLatencyCycles, P50LatencyCycles: r.P50LatencyCycles,
		P99LatencyCycles: r.P99LatencyCycles, MaxLatencyCycles: r.MaxLatencyCycles,
		FairnessJain: r.FairnessJain, AllocatedWavelengths: r.AllocatedWavelengths,
		TokenRotations: r.TokenRotations, ChannelBusyFraction: r.ChannelBusyFraction,
		TorusPathsSetUp: r.TorusPathsSetUp, TorusSetupsBlocked: r.TorusSetupsBlocked,
	}
}

func fabricSummary(r fabric.Result) summary {
	s := r.Stats
	return summary{
		DeliveredGbps: s.DeliveredGbps, PerCoreGbps: r.PerCoreGbps, OfferedGbps: r.OfferedGbps,
		EnergyPerMessagePJ: r.EnergyPerMessagePJ, EnergyTotalPJ: r.EnergyTotalPJ,
		EnergyPhotonicPJ: r.EnergyPhotonicPJ, EnergyElectricalPJ: r.EnergyElectricalPJ,
		EnergyBreakdownPJ: r.EnergyBreakdownPJ,
		PacketsInjected:   s.PacketsInjected, PacketsDelivered: s.PacketsDelivered,
		PacketsDroppedRX: s.PacketsDroppedRX, PacketsRejected: s.PacketsRejected,
		PacketsLost: s.PacketsLost, Retransmissions: s.Retransmissions,
		AvgLatencyCycles: s.AvgLatencyCycles, P50LatencyCycles: int64(s.P50LatencyCycles),
		P99LatencyCycles: int64(s.P99LatencyCycles), MaxLatencyCycles: int64(s.MaxLatencyCycles),
		FairnessJain: s.FairnessJain, AllocatedWavelengths: r.AllocatedWavelengths,
		TokenRotations: r.TokenRotations, ChannelBusyFraction: r.ChannelBusyFraction,
		TorusPathsSetUp: r.TorusPathsSetUp, TorusSetupsBlocked: r.TorusSetupsBlocked,
	}
}

// digestJSON is the SHA-256 of v's JSON encoding (map keys sorted, floats
// in shortest round-trip form), so equal values give equal digests.
func digestJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: digest of %T: %v", v, err)) // only plain data is digested
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func (s summary) digest() string { return digestJSON(s) }

// checker collects result mismatches. Every mismatch is kept and counts
// as a failed operation; none is dropped.
type checker struct {
	mu       sync.Mutex
	problems []string
}

func (c *checker) failf(format string, args ...any) {
	c.mu.Lock()
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

func (c *checker) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.problems)
}

// expect records a mismatch unless got equals want.
func (c *checker) expect(what, got, want string) bool {
	if got == want {
		return true
	}
	c.failf("%s: digest %.12s, want %.12s", what, got, want)
	return false
}

// digestFile is the committed table of result digests at the default
// seed and run length: workload -> name -> digest.
const digestFile = "perfbench/digests.json"

func loadDigests() (map[string]map[string]string, error) {
	data, err := os.ReadFile(digestFile)
	if errors.Is(err, fs.ErrNotExist) {
		return map[string]map[string]string{}, nil
	}
	if err != nil {
		return nil, err
	}
	var out map[string]map[string]string
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", digestFile, err)
	}
	return out, nil
}

// checkCommitted compares a run's digests with the committed ones. Every
// committed name must be present and equal; names the run produced that
// were never committed are reported as unchecked in the metadata.
func checkCommitted(c *checker, workload string, committed, got map[string]string) (unchecked []string) {
	for name, want := range committed {
		g, ok := got[name]
		if !ok {
			c.failf("%s %s: no result to check against the committed digest", workload, name)
			continue
		}
		c.expect(workload+" "+name+" (committed)", g, want)
	}
	for name := range got {
		if _, ok := committed[name]; !ok {
			unchecked = append(unchecked, name)
		}
	}
	sort.Strings(unchecked)
	return unchecked
}

// recordDigests writes the run's digests for one workload into the
// committed table, keeping the other workloads' entries.
func recordDigests(workload string, got map[string]string) error {
	all, err := loadDigests()
	if err != nil {
		return err
	}
	all[workload] = got
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestFile, append(data, '\n'), 0o644)
}
