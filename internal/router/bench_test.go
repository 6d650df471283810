package router

import (
	"testing"

	"hetpnoc/internal/packet"
	"hetpnoc/internal/photonic"
	"hetpnoc/internal/sim"
)

// BenchmarkRouterTickIdle measures the cost of arbitration over an empty
// router — the dominant case in a lightly loaded fabric.
func BenchmarkRouterTickIdle(b *testing.B) {
	ledger := photonic.NewLedger(photonic.DefaultEnergyParams())
	var occ int64
	arena, err := NewArena(ledger, &occ)
	if err != nil {
		b.Fatal(err)
	}
	inputs := make([]*Port, 5)
	widths := make([]int, 5)
	for i := range inputs {
		p, err := arena.NewPort(16, 64)
		if err != nil {
			b.Fatal(err)
		}
		inputs[i] = p
		widths[i] = 2
	}
	r, err := New("bench", inputs, widths, func(packet.Flit) int { return 0 }, ledger)
	if err != nil {
		b.Fatal(err)
	}
	out, err := arena.NewPort(16, 64)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := r.AddOutput(out, 2, true); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Tick(sim.Cycle(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouterTickStreaming measures a router continuously forwarding
// a saturated flow.
func BenchmarkRouterTickStreaming(b *testing.B) {
	ledger := photonic.NewLedger(photonic.DefaultEnergyParams())
	var occ int64
	in, err := NewPort(16, 64, ledger, &occ)
	if err != nil {
		b.Fatal(err)
	}
	r, err := New("bench", []*Port{in}, []int{2}, func(packet.Flit) int { return 0 }, ledger)
	if err != nil {
		b.Fatal(err)
	}
	out, err := NewPort(16, 64, ledger, &occ)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := r.AddOutput(out, 2, true); err != nil {
		b.Fatal(err)
	}

	pkt := &packet.Packet{ID: 1, Flits: 1 << 30, FlitBits: 32}
	vc, ok := in.AllocVC(pkt.ID)
	if !ok {
		b.Fatal("no VC")
	}
	seq := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Keep the input primed and the output drained. The sequence
		// number wraps: real packets are at most MaxFlits long, so the
		// buffer entries pack Seq into a few bits, while this synthetic
		// flow streams one endless packet.
		for in.Space(vc) > 0 && seq < pkt.Flits-1 {
			fl := packet.Flit{Packet: pkt, Type: packet.Body, Seq: seq % 4096}
			if seq == 0 {
				fl.Type = packet.Header
			}
			if err := in.Enqueue(vc, fl, sim.Cycle(i)); err != nil {
				b.Fatal(err)
			}
			seq++
		}
		if err := r.Tick(sim.Cycle(i)); err != nil {
			b.Fatal(err)
		}
		for out.BufferedFlits() > 32 {
			if _, err := out.Pop(0); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRouterTickBlocked measures a saturated router's common case:
// every input VC but one holds a header for an output whose downstream
// port has no free VC, while one routed packet streams body flits through
// that output. Only the stream can move; the blocked headers wait for a
// downstream VC to free up.
func BenchmarkRouterTickBlocked(b *testing.B) {
	ledger := photonic.NewLedger(photonic.DefaultEnergyParams())
	var occ int64
	arena, err := NewArena(ledger, &occ)
	if err != nil {
		b.Fatal(err)
	}
	inputs := make([]*Port, 5)
	widths := make([]int, 5)
	for i := range inputs {
		if inputs[i], err = arena.NewPort(16, 64); err != nil {
			b.Fatal(err)
		}
		widths[i] = 2
	}
	r, err := New("bench", inputs, widths, func(packet.Flit) int { return 0 }, ledger)
	if err != nil {
		b.Fatal(err)
	}
	out, err := arena.NewPort(16, 64)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := r.AddOutput(out, 2, true); err != nil {
		b.Fatal(err)
	}
	r.SetRouteTable([]int16{0})

	// Claim all but the last downstream VC; the stream's header takes it.
	dvc := out.VCCount() - 1
	for v := 0; v < dvc; v++ {
		if _, ok := out.AllocVC(packet.ID(1000 + v)); !ok {
			b.Fatal("no downstream VC")
		}
	}
	stream := &packet.Packet{ID: 1, Flits: 1 << 30, FlitBits: 32}
	svc, ok := inputs[0].AllocVC(stream.ID)
	if !ok {
		b.Fatal("no VC")
	}
	id := packet.ID(2)
	for _, in := range inputs {
		for {
			pkt := &packet.Packet{ID: id, Flits: 4, FlitBits: 32}
			vc, ok := in.AllocVC(pkt.ID)
			if !ok {
				break
			}
			if err := in.Enqueue(vc, packet.FlitAt(pkt, 0), 0); err != nil {
				b.Fatal(err)
			}
			id++
		}
	}

	seq := 0
	step := func(now sim.Cycle) {
		// Keep the stream primed and its downstream VC drained, as in
		// BenchmarkRouterTickStreaming.
		for inputs[0].Space(svc) > 0 {
			fl := packet.Flit{Packet: stream, Type: packet.Body, Seq: seq % 4096}
			if seq == 0 {
				fl.Type = packet.Header
			}
			if err := inputs[0].Enqueue(svc, fl, now); err != nil {
				b.Fatal(err)
			}
			seq++
		}
		if err := r.Tick(now); err != nil {
			b.Fatal(err)
		}
		for out.BufferedFlits() > 32 {
			if _, err := out.Pop(dvc); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Let the stream's header claim the last downstream VC.
	now := sim.Cycle(0)
	for ; out.FreeVCs() != 0; now++ {
		step(now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(now + sim.Cycle(i))
	}
}
