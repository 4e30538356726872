package timing

import (
	"context"
	"testing"

	"repro/internal/canon"
)

// TestLevelsWavefronts checks the cached level structure on the fuzz base
// graph: level consistency with fan-in, the maximum level, and caching
// across calls.
func TestLevelsWavefronts(t *testing.T) {
	g := fuzzBaseGraph(t)
	lv, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	for e := range g.Edges {
		ed := &g.Edges[e]
		if lv.Level[ed.To] <= lv.Level[ed.From] {
			t.Fatalf("edge %d->%d: level %d !< %d", ed.From, ed.To, lv.Level[ed.From], lv.Level[ed.To])
		}
	}
	maxL := 0
	for _, l := range lv.Level {
		if int(l) > maxL {
			maxL = int(l)
		}
	}
	if maxL != lv.MaxLevel {
		t.Fatalf("MaxLevel %d, highest vertex level %d", lv.MaxLevel, maxL)
	}
	lv2, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if lv2 != lv {
		t.Fatal("Levels not cached across calls")
	}
}

// TestLevelsNonMonotoneAfterRemove constructs the order-preserving edit
// that leaves a cached topological order with decreasing levels: removing
// an edge keeps the order but can drop its target's level below that of
// earlier-ordered vertices. Full passes walk that order as it is, so they
// must still produce correct results, and an Incremental built before the
// edit must agree with a fresh pass word for word afterwards.
func TestLevelsNonMonotoneAfterRemove(t *testing.T) {
	// a=0, b=1, u=2, v=3; edges a->b, b->u, a->v. Kahn order [a,b,v,u]
	// carries levels (0,1,1,2); removing b->u drops u to level 0 while the
	// (still valid) cached order keeps u last: (0,1,1,0) is non-monotone.
	g := NewGraph(fuzzSpace, 4, nil)
	form := func(nom float64) *canon.Form {
		f := fuzzSpace.NewForm()
		f.Nominal = nom
		f.Rand = 0.5
		return f
	}
	mustEdge(t, g, 0, 1, form(3))
	bu, err := g.AddEdge(1, 2, form(4), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	mustEdge(t, g, 0, 3, form(5))
	if err := g.SetIO([]int{0}, []int{3}, []string{"a"}, []string{"v"}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Order(); err != nil {
		t.Fatal(err)
	}
	inc, err := g.NewIncremental()
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.EnableRequired(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := g.RemoveEdge(bu); err != nil {
		t.Fatal(err)
	}
	lv, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if lv.Level[2] != 0 {
		t.Fatalf("u level %d after losing its only fanin", lv.Level[2])
	}
	order, err := g.Order()
	if err != nil {
		t.Fatal(err)
	}
	monotone := true
	for i := 1; i < len(order); i++ {
		monotone = monotone && lv.Level[order[i]] >= lv.Level[order[i-1]]
	}
	if monotone {
		t.Fatalf("levels %v along cached order %v should be non-monotone", lv.Level, order)
	}
	p := g.AcquirePass()
	defer p.Release()
	if err := p.Arrivals(g.Inputs...); err != nil {
		t.Fatal(err)
	}
	if p.Reached(2) {
		t.Fatal("u still reached after removing its only fanin")
	}
	if got := p.At(3).Nominal(); got != 5 {
		t.Fatalf("arrival at v: nominal %g, want 5", got)
	}
	if st, err := inc.Update(context.Background()); err != nil {
		t.Fatal(err)
	} else if st.Full {
		t.Fatal("RemoveEdge fell back to a full rebuild; the cone sweeps went untested")
	}
	compareExact(t, g, p.reach, p.bank, inc.reach, inc.arr, "incremental forward")
	if err := p.Required(g.Outputs...); err != nil {
		t.Fatal(err)
	}
	compareExact(t, g, p.reach, p.bank, inc.reqReach, inc.req, "incremental backward")
}

// compareExact requires bit-identical propagation results given as reach
// mask plus bank: same reach mask, same form words.
func compareExact(t *testing.T, g *Graph, wantReach []bool, want *canon.Bank, gotReach []bool, got *canon.Bank, what string) {
	t.Helper()
	for v := 0; v < g.NumVerts; v++ {
		if wantReach[v] != gotReach[v] {
			t.Fatalf("%s vertex %d: reach %v != %v", what, v, gotReach[v], wantReach[v])
		}
		if !wantReach[v] {
			continue
		}
		wv, gv := want.View(v), got.View(v)
		for k := range wv {
			if wv[k] != gv[k] {
				t.Fatalf("%s vertex %d word %d: %g != %g (bit-identity violated)",
					what, v, k, gv[k], wv[k])
			}
		}
	}
}
