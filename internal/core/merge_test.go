package core

import (
	"math"
	"testing"

	"repro/internal/canon"
	"repro/internal/timing"
)

var mergeSpace = canon.Space{Globals: 1, Components: 2}

// handGraph builds a timing graph from explicit edges for merge-op tests.
func handGraph(t *testing.T, nverts int, edges [][2]int, delays []float64, ins, outs []int) *timing.Graph {
	t.Helper()
	g := timing.NewGraph(mergeSpace, nverts, nil)
	for i, e := range edges {
		f := mergeSpace.Const(delays[i])
		f.Rand = 0.1 * delays[i] // give every edge some variance
		if _, err := g.AddEdge(e[0], e[1], f, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	names := func(ids []int, prefix string) []string {
		out := make([]string, len(ids))
		for i := range ids {
			out[i] = prefix + string(rune('a'+i))
		}
		return out
	}
	if err := g.SetIO(ins, outs, names(ins, "i"), names(outs, "o")); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSerialMergeForward reproduces paper Fig. 1(a): vertex k with one
// fanin i->k and fanouts k->j1, k->j2 collapses into direct edges whose
// delays are the statistical sums.
func TestSerialMergeForward(t *testing.T) {
	// 0 = input i, 1 = k, 2/3 = outputs j1, j2.
	g := handGraph(t, 4,
		[][2]int{{0, 1}, {1, 2}, {1, 3}},
		[]float64{10, 5, 7},
		[]int{0}, []int{2, 3})
	mg := newModelGraph(g, nil)
	if !mg.serialMerge() {
		t.Fatal("serial merge found nothing")
	}
	mg.reduce(0)
	verts, edges := mg.counts()
	if verts != 3 || edges != 2 {
		t.Fatalf("after merge: %d verts, %d edges; want 3, 2", verts, edges)
	}
	out, err := rebuildGraph(g, mg)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := out.AllPairsDelays(0)
	if err != nil {
		t.Fatal(err)
	}
	if m := ap.M[0][0].Mean(); math.Abs(m-15) > 1e-12 {
		t.Fatalf("i->j1 delay %g, want 15", m)
	}
	if m := ap.M[0][1].Mean(); math.Abs(m-17) > 1e-12 {
		t.Fatalf("i->j2 delay %g, want 17", m)
	}
	// Variance composes too: 0.1-relative rands add in quadrature.
	wantStd := math.Hypot(1.0, 0.5) // 10*0.1 and 5*0.1
	if s := ap.M[0][0].Std(); math.Abs(s-wantStd) > 1e-9 {
		t.Fatalf("i->j1 std %g, want %g", s, wantStd)
	}
}

// TestSerialMergeReverse is Fig. 1(b): one fanout, several fanins.
func TestSerialMergeReverse(t *testing.T) {
	// 0,1 inputs -> 2 (k) -> 3 output.
	g := handGraph(t, 4,
		[][2]int{{0, 2}, {1, 2}, {2, 3}},
		[]float64{4, 6, 9},
		[]int{0, 1}, []int{3})
	mg := newModelGraph(g, nil)
	mg.reduce(0)
	verts, edges := mg.counts()
	if verts != 3 || edges != 2 {
		t.Fatalf("after merge: %d verts, %d edges; want 3, 2", verts, edges)
	}
	out, err := rebuildGraph(g, mg)
	if err != nil {
		t.Fatal(err)
	}
	ap, _ := out.AllPairsDelays(0)
	if m := ap.M[0][0].Mean(); math.Abs(m-13) > 1e-12 {
		t.Fatalf("i0->o delay %g, want 13", m)
	}
	if m := ap.M[1][0].Mean(); math.Abs(m-15) > 1e-12 {
		t.Fatalf("i1->o delay %g, want 15", m)
	}
}

// TestParallelMerge is Fig. 2: parallel edges collapse to their statistical
// max.
func TestParallelMerge(t *testing.T) {
	g := handGraph(t, 2,
		[][2]int{{0, 1}, {0, 1}, {0, 1}},
		[]float64{10, 12, 8},
		[]int{0}, []int{1})
	mg := newModelGraph(g, nil)
	if !mg.parallelMerge() {
		t.Fatal("parallel merge found nothing")
	}
	mg.reduce(0)
	_, edges := mg.counts()
	if edges != 1 {
		t.Fatalf("edges = %d, want 1", edges)
	}
	out, err := rebuildGraph(g, mg)
	if err != nil {
		t.Fatal(err)
	}
	ap, _ := out.AllPairsDelays(0)
	got := ap.M[0][0]
	// Reference: Clark max of the three forms.
	forms := make([]*canon.Form, 3)
	for i, d := range []float64{10, 12, 8} {
		f := mergeSpace.Const(d)
		f.Rand = 0.1 * d
		forms[i] = f
	}
	want, err := canon.MaxAll(forms)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Mean()-want.Mean()) > 1e-9 || math.Abs(got.Std()-want.Std()) > 1e-9 {
		t.Fatalf("merged edge %v, want %v", got, want)
	}
}

// TestTrimRemovesOrphanedSubgraph: removing an edge strands an internal
// vertex; trim must cascade it away.
func TestTrimRemovesOrphanedSubgraph(t *testing.T) {
	// 0 -> 1 -> 2 -> 3 with a stub 1 -> 4 (4 internal, no fanout).
	g := handGraph(t, 5,
		[][2]int{{0, 1}, {1, 2}, {2, 3}, {1, 4}},
		[]float64{1, 2, 3, 4},
		[]int{0}, []int{3})
	mg := newModelGraph(g, nil)
	if !mg.trim() {
		t.Fatal("trim found nothing")
	}
	verts, edges := mg.counts()
	if verts != 4 || edges != 3 {
		t.Fatalf("after trim: %d verts, %d edges; want 4, 3", verts, edges)
	}
}

// TestRemovalThenTrimCascade: killing the only edge into a chain removes
// the whole chain.
func TestRemovalThenTrimCascade(t *testing.T) {
	// 0 -> 1 -> 2 -> 3(out); 0 -> 3 direct. Remove 0->1.
	g := handGraph(t, 4,
		[][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}},
		[]float64{1, 2, 3, 10},
		[]int{0}, []int{3})
	remove := []bool{true, false, false, false}
	mg := newModelGraph(g, remove)
	mg.reduce(0)
	verts, edges := mg.counts()
	if verts != 2 || edges != 1 {
		t.Fatalf("after cascade: %d verts, %d edges; want 2, 1", verts, edges)
	}
	out, err := rebuildGraph(g, mg)
	if err != nil {
		t.Fatal(err)
	}
	ap, _ := out.AllPairsDelays(0)
	if m := ap.M[0][0].Mean(); math.Abs(m-10) > 1e-12 {
		t.Fatalf("remaining path %g, want 10", m)
	}
}

// TestMergePreservesDiamond: a reconvergent diamond must reduce to a
// single edge carrying max(top path, bottom path).
func TestMergePreservesDiamond(t *testing.T) {
	// 0 -> 1 -> 3, 0 -> 2 -> 3.
	g := handGraph(t, 4,
		[][2]int{{0, 1}, {1, 3}, {0, 2}, {2, 3}},
		[]float64{5, 6, 4, 8},
		[]int{0}, []int{3})
	mg := newModelGraph(g, nil)
	mg.reduce(0)
	verts, edges := mg.counts()
	if verts != 2 || edges != 1 {
		t.Fatalf("diamond reduced to %d verts, %d edges; want 2, 1", verts, edges)
	}
	out, err := rebuildGraph(g, mg)
	if err != nil {
		t.Fatal(err)
	}
	ap, _ := out.AllPairsDelays(0)
	got := ap.M[0][0]
	top := mergeSpace.Const(11)
	top.Rand = math.Hypot(0.5, 0.6)
	bot := mergeSpace.Const(12)
	bot.Rand = math.Hypot(0.4, 0.8)
	want := canon.Max(top, bot)
	if math.Abs(got.Mean()-want.Mean()) > 1e-9 {
		t.Fatalf("diamond delay mean %g, want %g", got.Mean(), want.Mean())
	}
	if math.Abs(got.Std()-want.Std()) > 1e-9 {
		t.Fatalf("diamond delay std %g, want %g", got.Std(), want.Std())
	}
}

// TestMergeIdempotent: reducing an already-reduced graph changes nothing.
func TestMergeIdempotent(t *testing.T) {
	g := buildGraph(t, "c432", 1)
	m1, err := Extract(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mg := newModelGraph(m1.Graph, nil)
	mg.reduce(0)
	verts, edges := mg.counts()
	if verts != m1.Graph.NumVerts || edges != len(m1.Graph.Edges) {
		t.Fatalf("re-reduction changed the model: %d/%d -> %d/%d",
			m1.Graph.NumVerts, len(m1.Graph.Edges), verts, edges)
	}
}

// TestPortsNeverMerged: input/output vertices survive even when they have
// single fanin/fanout.
func TestPortsNeverMerged(t *testing.T) {
	// chain i -> a -> o: a merges away, ports stay.
	g := handGraph(t, 3,
		[][2]int{{0, 1}, {1, 2}},
		[]float64{3, 4},
		[]int{0}, []int{2})
	mg := newModelGraph(g, nil)
	mg.reduce(0)
	out, err := rebuildGraph(g, mg)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumVerts != 2 || len(out.Edges) != 1 {
		t.Fatalf("chain: %d verts, %d edges; want 2, 1", out.NumVerts, len(out.Edges))
	}
	if len(out.Inputs) != 1 || len(out.Outputs) != 1 {
		t.Fatal("ports lost")
	}
	if out.InputNames[0] != "ia" || out.OutputNames[0] != "oa" {
		t.Fatal("port names lost")
	}
}

// TestExtractRepeatable: extracting the same graph twice gives the same
// model to the last bit. Clark max is not associative, so this holds only
// while every merge runs in an order fixed by the graph itself.
func TestExtractRepeatable(t *testing.T) {
	g := buildGraph(t, "c1355", 1)
	var ref *Model
	for run := 0; run < 8; run++ {
		m, err := Extract(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = m
			continue
		}
		if len(m.Graph.Edges) != len(ref.Graph.Edges) {
			t.Fatalf("run %d: %d model edges, first run %d", run, len(m.Graph.Edges), len(ref.Graph.Edges))
		}
		for i := range m.Graph.Edges {
			a, b := &m.Graph.Edges[i], &ref.Graph.Edges[i]
			if a.From != b.From || a.To != b.To || a.Delay.Mean() != b.Delay.Mean() || a.Delay.Std() != b.Delay.Std() {
				t.Fatalf("run %d: model edge %d differs from the first run", run, i)
			}
		}
	}
}
