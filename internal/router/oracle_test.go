package router

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"hetpnoc/internal/packet"
	"hetpnoc/internal/photonic"
	"hetpnoc/internal/sim"
	"hetpnoc/internal/topology"
)

// This file checks Router.Tick against the reference scan its comment
// cites: a naive round-robin arbiter that walks every input VC object in
// flat order for every output, calling the routing function and AllocVC
// as it goes. The oracle drives two identical rigs with the same traffic,
// one through Tick and one through the reference, and compares them after
// every cycle.

// oracleShape is the wiring of one randomized rig.
type oracleShape struct {
	inVCs, inWidths   []int
	inDepth           int
	outVCs, outWidths []int
	outDepth          int
	outShared         []bool // downstream port carved from the input arena
	chargeLink        []bool
	cores             int
}

func randomShape(rng *sim.RNG) oracleShape {
	s := oracleShape{inDepth: 2 + rng.Intn(3), outDepth: 1 + rng.Intn(3), cores: 7}
	ins := 2 + rng.Intn(3)
	for i := 0; i < ins; i++ {
		vcs := 1 + rng.Intn(5)
		if rng.Intn(4) == 0 {
			vcs = 30 + rng.Intn(20) // spill the candidate masks past one word
		}
		s.inVCs = append(s.inVCs, vcs)
		s.inWidths = append(s.inWidths, 1+rng.Intn(2))
	}
	outs := 2 + rng.Intn(2)
	for o := 0; o < outs; o++ {
		// One or two downstream VCs keep the outputs exhausted most of
		// the time. Widths stay at most 2, so an output's grant set plus
		// its final round-robin cursor pins the order of its grants.
		s.outVCs = append(s.outVCs, 1+rng.Intn(2))
		s.outWidths = append(s.outWidths, 1+rng.Intn(2))
		s.outShared = append(s.outShared, rng.Intn(2) == 0)
		s.chargeLink = append(s.chargeLink, rng.Intn(2) == 0)
	}
	return s
}

func (s oracleShape) route(f packet.Flit) int { return int(f.Packet.Dst) % len(s.outVCs) }

// refArbiter is the reference scan. It keeps its own wormhole locks per
// input VC and touches the ports only through their buffer primitives.
type refArbiter struct {
	shape  oracleShape
	inputs []*Port
	outs   []*Port
	ledger *photonic.Ledger
	rr     []int
	lock   [][]refLock // [input][vc]
}

type refLock struct {
	routed bool
	out    int
	vc     int
}

// oracleGrant is one flit moved by a Tick.
type oracleGrant struct {
	out, in, vc int
	pkt         packet.ID
	seq         int
	dstVC       int
}

func (g oracleGrant) String() string {
	return fmt.Sprintf("o%d<-i%d.v%d pkt%d#%d ->v%d", g.out, g.in, g.vc, g.pkt, g.seq, g.dstVC)
}

func (r *refArbiter) tick(t *testing.T, now sim.Cycle) []oracleGrant {
	t.Helper()
	type pos struct{ in, vc int }
	var flat []pos
	for i, in := range r.inputs {
		for vc := 0; vc < in.VCCount(); vc++ {
			flat = append(flat, pos{i, vc})
		}
	}
	budget := append([]int(nil), r.shape.inWidths...)
	var grants []oracleGrant
	for o, dst := range r.outs {
		granted := 0
		for scan := 0; scan < len(flat) && granted < r.shape.outWidths[o]; scan++ {
			p := flat[(r.rr[o]+scan)%len(flat)]
			if budget[p.in] == 0 {
				continue
			}
			in := r.inputs[p.in]
			f, enq, ok := in.Head(p.vc)
			if !ok || now-enq < PipelineDelay {
				continue
			}
			l := &r.lock[p.in][p.vc]
			if !l.routed {
				if !f.Type.IsHeader() || r.shape.route(f) != o {
					continue
				}
				dstVC, ok := dst.AllocVC(f.Packet.ID)
				if !ok {
					continue
				}
				*l = refLock{routed: true, out: o, vc: dstVC}
			} else if l.out != o {
				continue
			}
			if dst.Space(l.vc) == 0 {
				continue
			}
			popped, err := in.Pop(p.vc)
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.Enqueue(l.vc, popped, now); err != nil {
				t.Fatal(err)
			}
			r.ledger.AddRouterTraversal(float64(popped.Bits()))
			if r.shape.chargeLink[o] {
				r.ledger.AddWireLink(float64(popped.Bits()))
			}
			grants = append(grants, oracleGrant{o, p.in, p.vc, popped.Packet.ID, popped.Seq, l.vc})
			if popped.Type.IsTail() {
				*l = refLock{}
			}
			budget[p.in]--
			granted++
			r.rr[o] = (r.rr[o] + scan + 1) % len(flat)
		}
	}
	return grants
}

// oracleRig is one router's ports plus either the Router under test or
// the reference arbiter driving them.
type oracleRig struct {
	shape  oracleShape
	ledger *photonic.Ledger
	occ    int64
	arenas []*Arena
	inputs []*Port
	outs   []*Port
	r      *Router
	ref    *refArbiter
}

func newOracleRig(t *testing.T, s oracleShape, reference, tabled bool) *oracleRig {
	t.Helper()
	g := &oracleRig{shape: s, ledger: photonic.NewLedger(photonic.DefaultEnergyParams())}
	g.ledger.StartMeasurement()
	arena, err := NewArena(g.ledger, &g.occ)
	if err != nil {
		t.Fatal(err)
	}
	g.arenas = []*Arena{arena}
	for _, vcs := range s.inVCs {
		p, err := arena.NewPort(vcs, s.inDepth)
		if err != nil {
			t.Fatal(err)
		}
		g.inputs = append(g.inputs, p)
	}
	for o, vcs := range s.outVCs {
		var p *Port
		if s.outShared[o] {
			p, err = arena.NewPort(vcs, s.outDepth)
		} else {
			p, err = NewPort(vcs, s.outDepth, g.ledger, &g.occ)
			if err == nil {
				g.arenas = append(g.arenas, p.Arena())
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		g.outs = append(g.outs, p)
	}
	if reference {
		g.ref = &refArbiter{shape: s, inputs: g.inputs, outs: g.outs, ledger: g.ledger, rr: make([]int, len(g.outs))}
		for _, vcs := range s.inVCs {
			g.ref.lock = append(g.ref.lock, make([]refLock, vcs))
		}
		return g
	}
	g.r, err = New("oracle", g.inputs, s.inWidths, s.route, g.ledger)
	if err != nil {
		t.Fatal(err)
	}
	for o, p := range g.outs {
		if _, err := g.r.AddOutput(p, s.outWidths[o], s.chargeLink[o]); err != nil {
			t.Fatal(err)
		}
	}
	if tabled {
		tab := make([]int16, s.cores)
		for c := range tab {
			tab[c] = int16(c % len(s.outVCs))
		}
		g.r.SetRouteTable(tab)
	}
	return g
}

// vcFlits returns the flits buffered in VC vc of p, head first.
func vcFlits(p *Port, vc int) []packet.Flit {
	a := p.a
	g := a.vcBase[p.id] + int32(vc)
	buf := a.bufs[g]
	out := make([]packet.Flit, a.hot[g].count)
	for k := range out {
		out[k] = buf[(int(a.head[g])+k)%len(buf)].flit()
	}
	return out
}

// state renders every port's ownership and buffer contents, the round-
// robin cursors and the energy totals.
func (g *oracleRig) state() string {
	var b strings.Builder
	dump := func(name string, p *Port) {
		fmt.Fprintf(&b, "%s free=%b occ=%b:", name, p.a.freeMask[p.id], p.OccupiedMask())
		for vc := 0; vc < p.VCCount(); vc++ {
			_, enq, _ := p.Head(vc)
			fmt.Fprintf(&b, " [own=%d enq=%d", p.Owner(vc), enq)
			for _, f := range vcFlits(p, vc) {
				fmt.Fprintf(&b, " %d#%d", f.Packet.ID, f.Seq)
			}
			b.WriteString("]")
		}
		b.WriteString("\n")
	}
	for i, p := range g.inputs {
		dump(fmt.Sprintf("in%d", i), p)
	}
	for o, p := range g.outs {
		dump(fmt.Sprintf("out%d", o), p)
	}
	rr := g.rr()
	fmt.Fprintf(&b, "rr=%v occ=%d", rr, g.occ)
	for _, c := range photonic.Components() {
		fmt.Fprintf(&b, " %s=%v", c, g.ledger.Total(c))
	}
	return b.String()
}

func (g *oracleRig) rr() []int {
	if g.ref != nil {
		return append([]int(nil), g.ref.rr...)
	}
	return g.r.RRState(nil)
}

// tick runs one cycle of arbitration and returns its grants, sorted. The
// kernel's grants are read back from the downstream rings: each flit that
// arrived there this cycle is traced to the input VC its packet owned.
func (g *oracleRig) tick(t *testing.T, now sim.Cycle) []oracleGrant {
	t.Helper()
	var grants []oracleGrant
	if g.ref != nil {
		grants = g.ref.tick(t, now)
	} else {
		type pos struct{ in, vc int }
		owners := map[packet.ID]pos{}
		for i, p := range g.inputs {
			for vc := 0; vc < p.VCCount(); vc++ {
				if id := p.Owner(vc); id != 0 {
					owners[id] = pos{i, vc}
				}
			}
		}
		before := make([][]int, len(g.outs))
		for o, p := range g.outs {
			for vc := 0; vc < p.VCCount(); vc++ {
				before[o] = append(before[o], p.VC(vc).Len())
			}
		}
		if err := g.r.Tick(now); err != nil {
			t.Fatal(err)
		}
		for o, p := range g.outs {
			for vc := 0; vc < p.VCCount(); vc++ {
				for _, f := range vcFlits(p, vc)[before[o][vc]:] {
					src := owners[f.Packet.ID]
					grants = append(grants, oracleGrant{o, src.in, src.vc, f.Packet.ID, f.Seq, vc})
				}
			}
		}
		g.checkRouted(t)
	}
	sort.Slice(grants, func(i, j int) bool { return grants[i].String() < grants[j].String() })
	return grants
}

// checkRouted asserts the router's persistent routed set mirrors the
// per-VC routed flags it summarizes.
func (g *oracleRig) checkRouted(t *testing.T) {
	t.Helper()
	r := g.r
	for idx, c := range r.cand {
		want := r.arena.hot[c.g].flags&vcRouted != 0
		if got := r.routed[idx>>6]&(1<<(uint(idx)&63)) != 0; got != want {
			t.Fatalf("routed bit of candidate %d (input %d VC %d) = %v, VC routed flag = %v", idx, c.in, c.vc, got, want)
		}
	}
}

// blocked reports whether some output has no free downstream VC while an
// aged, unrouted header routed to it waits: the case the arbitration
// filter removes from the scan.
func (g *oracleRig) blocked(now sim.Cycle) bool {
	for o, dst := range g.outs {
		if dst.FreeVCs() != 0 {
			continue
		}
		for _, in := range g.inputs {
			for vc := 0; vc < in.VCCount(); vc++ {
				f, enq, ok := in.Head(vc)
				gi := in.a.vcBase[in.id] + int32(vc)
				if ok && now-enq >= PipelineDelay && f.Type.IsHeader() &&
					in.a.hot[gi].flags&vcRouted == 0 && g.shape.route(f) == o {
					return true
				}
			}
		}
	}
	return false
}

// oracleDriver feeds both rigs the same traffic and drains their
// downstream ports at the same random pace.
type oracleDriver struct {
	rng    *sim.RNG
	nextID packet.ID
	stream [][]oracleStream // [input][vc]: packet being written, next flit
}

type oracleStream struct {
	pkt  *packet.Packet
	next int
}

func newOracleDriver(s oracleShape, seed int64) *oracleDriver {
	d := &oracleDriver{rng: sim.NewRNG(uint64(seed))}
	for _, vcs := range s.inVCs {
		d.stream = append(d.stream, make([]oracleStream, vcs))
	}
	return d
}

func (d *oracleDriver) clone() *oracleDriver {
	c := &oracleDriver{nextID: d.nextID}
	for _, s := range d.stream {
		c.stream = append(c.stream, append([]oracleStream(nil), s...))
	}
	return c
}

// feed starts new packets and writes the next flit of streaming ones.
func (d *oracleDriver) feed(t *testing.T, now sim.Cycle, rigs ...*oracleRig) {
	t.Helper()
	s := rigs[0].shape
	for i := range s.inVCs {
		if d.rng.Intn(2) == 0 {
			d.nextID++
			pkt := &packet.Packet{ID: d.nextID, Flits: 1 + d.rng.Intn(4), FlitBits: 16 << d.rng.Intn(3),
				Dst: topology.CoreID(d.rng.Intn(s.cores))}
			vc := -1
			for k, g := range rigs {
				v, ok := g.inputs[i].AllocVC(pkt.ID)
				if !ok {
					v = -1
				}
				if k > 0 && v != vc {
					t.Fatalf("cycle %d: input %d allocated VC %d vs %d", now, i, vc, v)
				}
				vc = v
			}
			if vc >= 0 {
				d.stream[i][vc] = oracleStream{pkt: pkt}
			}
		}
		for vc := range d.stream[i] {
			st := &d.stream[i][vc]
			if st.pkt == nil || d.rng.Intn(3) == 0 || rigs[0].inputs[i].Space(vc) == 0 {
				continue
			}
			for _, g := range rigs {
				if err := g.inputs[i].Enqueue(vc, packet.FlitAt(st.pkt, st.next), now); err != nil {
					t.Fatal(err)
				}
			}
			if st.next++; st.next == st.pkt.Flits {
				*st = oracleStream{}
			}
		}
	}
}

// drain pops at most one flit per downstream port, slowly enough that the
// downstream VCs stay claimed most of the time.
func (d *oracleDriver) drain(t *testing.T, rigs ...*oracleRig) {
	t.Helper()
	for o := range rigs[0].outs {
		occ := rigs[0].outs[o].OccupiedMask()
		if occ == 0 || d.rng.Intn(3) != 0 {
			continue
		}
		var vcs []int
		for vc := 0; occ != 0; vc, occ = vc+1, occ>>1 {
			if occ&1 != 0 {
				vcs = append(vcs, vc)
			}
		}
		vc := vcs[d.rng.Intn(len(vcs))]
		for _, g := range rigs {
			if _, err := g.outs[o].Pop(vc); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// lockstep runs cycles [from, to) on the kernel and reference rigs,
// failing at the first cycle whose grants or resulting state differ. It
// returns the kernel's per-cycle trace, how many cycles started with a
// header blocked on an exhausted output, and how many flits moved.
func lockstep(t *testing.T, d *oracleDriver, k, ref *oracleRig, from, to sim.Cycle) (trace []string, blocked, grants int) {
	t.Helper()
	for now := from; now < to; now++ {
		d.feed(t, now, k, ref)
		if k.blocked(now) {
			blocked++
		}
		kg, rg := k.tick(t, now), ref.tick(t, now)
		if fmt.Sprint(kg) != fmt.Sprint(rg) {
			t.Fatalf("cycle %d: grants differ\nkernel:    %v\nreference: %v", now, kg, rg)
		}
		ks, rs := k.state(), ref.state()
		if ks != rs {
			t.Fatalf("cycle %d: state differs after tick\nkernel:\n%s\nreference:\n%s", now, ks, rs)
		}
		d.drain(t, k, ref)
		trace = append(trace, fmt.Sprint(kg)+"\n"+ks)
		grants += len(kg)
	}
	return trace, blocked, grants
}

// TestRouterTickMatchesReference drives randomized rigs, with and without
// route tables, and requires Tick to reproduce the reference scan's
// grants, cursors, buffers and energy on every cycle.
func TestRouterTickMatchesReference(t *testing.T) {
	const cycles = 1200
	for _, tabled := range []bool{true, false} {
		for seed := int64(1); seed <= 10; seed++ {
			t.Run(fmt.Sprintf("tabled=%v/seed=%d", tabled, seed), func(t *testing.T) {
				s := randomShape(sim.NewRNG(uint64(seed)))
				k := newOracleRig(t, s, false, tabled)
				ref := newOracleRig(t, s, true, tabled)
				d := newOracleDriver(s, seed)
				_, blocked, grants := lockstep(t, d, k, ref, 0, cycles)
				if blocked < cycles/10 || grants < cycles/4 {
					t.Fatalf("weak workload: %d blocked cycles, %d grants in %d cycles", blocked, grants, cycles)
				}
			})
		}
	}
}

// rigCheckpoint is a rig's full mutable state: every arena, the ledger,
// the cursors and (for the reference) its wormhole locks.
type rigCheckpoint struct {
	arenas []*ArenaSnapshot
	ledger photonic.LedgerSnapshot
	rr     []int
	lock   [][]refLock
}

func (g *oracleRig) checkpoint() rigCheckpoint {
	c := rigCheckpoint{ledger: g.ledger.Snapshot(), rr: g.rr()}
	for _, a := range g.arenas {
		c.arenas = append(c.arenas, a.Snapshot(nil))
	}
	if g.ref != nil {
		for _, l := range g.ref.lock {
			c.lock = append(c.lock, append([]refLock(nil), l...))
		}
	}
	return c
}

func (g *oracleRig) restore(t *testing.T, c rigCheckpoint) {
	t.Helper()
	for i, a := range g.arenas {
		if err := a.Restore(c.arenas[i]); err != nil {
			t.Fatal(err)
		}
	}
	g.ledger.Restore(c.ledger)
	if g.ref != nil {
		copy(g.ref.rr, c.rr)
		for i, l := range c.lock {
			copy(g.ref.lock[i], l)
		}
		return
	}
	if rest := g.r.SetRRState(c.rr); len(rest) != 0 {
		t.Fatalf("%d cursors left over", len(rest))
	}
}

// TestRouterTickRestoreMidBlock checkpoints both rigs while a header is
// blocked on an exhausted output, runs on, restores and replays the same
// traffic: the continuation must match the reference again and repeat
// the first pass cycle for cycle, so the routed set rebuilt by Restore
// filters exactly as the one maintained incrementally did.
func TestRouterTickRestoreMidBlock(t *testing.T) {
	const warm, span = 400, 600
	for _, tabled := range []bool{true, false} {
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("tabled=%v/seed=%d", tabled, seed), func(t *testing.T) {
				s := randomShape(sim.NewRNG(uint64(seed)))
				k := newOracleRig(t, s, false, tabled)
				ref := newOracleRig(t, s, true, tabled)
				d := newOracleDriver(s, seed)
				lockstep(t, d, k, ref, 0, warm)
				at := sim.Cycle(warm)
				for ; !k.blocked(at); at++ {
					if at > 10*warm {
						t.Fatal("no blocked header to checkpoint at")
					}
					lockstep(t, d, k, ref, at, at+1)
				}
				kc, rc, dc := k.checkpoint(), ref.checkpoint(), d.clone()

				d.rng = sim.NewRNG(uint64(seed + 1000))
				first, _, _ := lockstep(t, d, k, ref, at, at+span)

				k.restore(t, kc)
				ref.restore(t, rc)
				d = dc
				d.rng = sim.NewRNG(uint64(seed + 1000))
				second, _, _ := lockstep(t, d, k, ref, at, at+span)
				for i := range first {
					if first[i] != second[i] {
						t.Fatalf("cycle %d after restore diverges\nfirst:\n%s\nsecond:\n%s", at+sim.Cycle(i), first[i], second[i])
					}
				}
			})
		}
	}
}
