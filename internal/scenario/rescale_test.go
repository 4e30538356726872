package scenario

import (
	"context"
	"math"
	"testing"

	"repro/internal/canon"
	"repro/internal/cell"
	"repro/internal/circuit"
	"repro/internal/place"
	"repro/internal/timing"
	"repro/internal/variation"
)

// scaleBank is the materialized reference of the sweep's gather-time
// rescale: it writes the scenario-scaled image of the base delay bank into
// dst, one slot per edge index. Tombstoned slots are left untouched — the
// propagation kernels never read them.
func (s *Scenario) scaleBank(g *timing.Graph, base, dst *canon.Bank) {
	nGlob := g.Space.Globals
	gs, ls, rs := factor(s.GlobSigma), factor(s.LocSigma), factor(s.RandSigma)
	for ei := range g.Edges {
		e := &g.Edges[ei]
		if e.Removed {
			continue
		}
		k := s.edgeFactor(ei, cellEdge(e))
		canon.ScalePartsView(dst.View(ei), base.View(ei), nGlob, k, gs, ls, rs)
	}
}

// TestSweepMatchesMaterializedBank: every scenario of a flat sweep — class
// and per-edge scales, sigma blocks, a derate — is bit-identical to a
// forward pass over the scenario's explicitly rescaled delay bank, on a
// graph with tombstoned edges.
func TestSweepMatchesMaterializedBank(t *testing.T) {
	c, err := circuit.Generate(circuit.TopoSpec{Name: "rb", PIs: 8, POs: 4, Gates: 80, Edges: 170, Depth: 9}, 3)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := place.Topological(c, place.DefaultPitch)
	if err != nil {
		t.Fatal(err)
	}
	corr, _ := variation.DefaultCorrelation()
	gm, err := variation.NewGridModel(plan.NX, plan.NY, plan.Pitch, corr)
	if err != nil {
		t.Fatal(err)
	}
	g, err := timing.Build(c, cell.Synthetic90nm(), plan, gm)
	if err != nil {
		t.Fatal(err)
	}
	// Tombstone two edges away from any sole path to the outputs.
	removed := 0
	for ei := len(g.Edges) - 1; ei >= 0 && removed < 2; ei-- {
		if len(g.In[g.Edges[ei].To]) > 1 {
			if err := g.RemoveEdge(ei); err != nil {
				t.Fatal(err)
			}
			removed++
		}
	}
	scens := []Scenario{
		{Name: "unit"},
		{Name: "hot", Derate: 1.18},
		{Name: "aged", CellScale: 1.07, NetScale: 1.3},
		{Name: "sigma", GlobSigma: 1.5, LocSigma: 1.25, RandSigma: 0.9},
		{Name: "eco", Derate: 1.05, EdgeScales: map[int]float64{2: 1.4, 11: 0.8, len(g.Edges) - 1: 1.2}},
	}
	rep, err := SweepGraph(context.Background(), g, scens, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	base := g.EdgeDelays()
	for i := range scens {
		bank := canon.NewBank(g.Space, len(g.Edges))
		scens[i].scaleBank(g, base, bank)
		want, err := bankDelay(g, bank)
		if err != nil {
			t.Fatal(err)
		}
		got := rep.Results[i].Delay
		if got == nil {
			t.Fatalf("scenario %q: %v", scens[i].Name, rep.Results[i].Err)
		}
		bits := func(f *canon.Form) []uint64 {
			v := make(canon.View, g.Space.Stride())
			v.LoadForm(f)
			out := make([]uint64, len(v))
			for k, x := range v {
				out[k] = math.Float64bits(x)
			}
			return out
		}
		gb, wb := bits(got), bits(want)
		for k := range gb {
			if gb[k] != wb[k] {
				t.Fatalf("scenario %q slot %d: sweep %v, materialized bank %v",
					scens[i].Name, k, math.Float64frombits(gb[k]), math.Float64frombits(wb[k]))
			}
		}
	}
}

// bankDelay is the circuit delay of a forward pass over an explicit delay
// bank, folded over the outputs in Graph.MaxDelay's order.
func bankDelay(g *timing.Graph, bank *canon.Bank) (*canon.Form, error) {
	p := g.AcquirePass()
	defer p.Release()
	if err := p.ArrivalsOver(bank, g.LaunchSources()...); err != nil {
		return nil, err
	}
	acc, first := p.Scratch(), true
	for _, o := range g.Outputs {
		switch {
		case !p.Reached(o):
		case first:
			canon.CopyView(acc, p.At(o))
			first = false
		default:
			canon.MaxViews(acc, acc, p.At(o))
		}
	}
	return acc.Form(g.Space), nil
}
