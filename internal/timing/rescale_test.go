package timing

import (
	"math/rand"
	"testing"

	"repro/internal/canon"
)

// TestRescaledPassesMatchMaterializedBank pins the gather-time rescale to
// its reference: the forward and min passes over the graph's delays under a
// Rescale are bit-identical to the same passes over an explicitly rescaled
// delay bank (canon.ScalePartsView per edge), on a graph with tombstoned
// edges and per-edge factors.
func TestRescaledPassesMatchMaterializedBank(t *testing.T) {
	g := buildBench(t, "c880", 7)
	for _, ei := range []int{3, len(g.Edges) / 2, len(g.Edges) - 5} {
		if err := g.RemoveEdge(ei); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(11))
	rs := &Rescale{Edge: make([]float64, len(g.Edges)), Glob: 1.3, Loc: 0.85, Rand: 1.7}
	for ei := range rs.Edge {
		rs.Edge[ei] = 1.07
		if rng.Intn(5) == 0 {
			rs.Edge[ei] *= 0.5 + rng.Float64() // per-edge override
		}
	}
	scaled := canon.NewBank(g.Space, len(g.Edges))
	for ei := range g.Edges {
		if !g.Edges[ei].Removed {
			canon.ScalePartsView(scaled.View(ei), g.EdgeDelays().View(ei), g.Space.Globals,
				rs.Edge[ei], rs.Glob, rs.Loc, rs.Rand)
		}
	}
	src := g.LaunchSources()
	for _, c := range []struct {
		dir      string
		ref, got func(p *Pass) error
	}{
		{"forward", func(p *Pass) error { return p.ArrivalsOver(scaled, src...) },
			func(p *Pass) error { return p.Arrivals(src...) }},
		{"min", func(p *Pass) error { return p.ArrivalsMinOver(scaled, src...) },
			func(p *Pass) error { return p.ArrivalsMin(src...) }},
	} {
		ref := g.AcquirePass()
		if err := c.ref(ref); err != nil {
			t.Fatal(err)
		}
		p := g.AcquirePass().WithRescale(rs)
		if err := c.got(p); err != nil {
			t.Fatal(err)
		}
		compareExact(t, g, ref.reach, ref.bank, p.reach, p.bank, c.dir)
		p.Release()
		ref.Release()
	}

	short := g.AcquirePass().WithRescale(&Rescale{Edge: rs.Edge[:1]})
	defer short.Release()
	if err := short.Arrivals(src...); err == nil {
		t.Fatal("rescale with too few edge factors accepted")
	}
}
