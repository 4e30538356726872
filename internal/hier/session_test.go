package hier

import (
	"context"
	"math"
	"testing"

	"repro/internal/canon"
	"repro/internal/circuit"
	"repro/internal/timing"
)

var sessionSpec = circuit.TopoSpec{Name: "g90", PIs: 10, POs: 5, Gates: 90, Edges: 190, Depth: 10}

// sessionDesign builds a quad design around a generated module plus a
// same-footprint replacement module (same spec, different seed).
func sessionDesign(t *testing.T) (*Design, *Module, *Module) {
	t.Helper()
	mod := genModule(t, sessionSpec, 1)
	alt := genModule(t, sessionSpec, 2)
	if alt.NX != mod.NX || alt.NY != mod.NY || alt.Pitch != mod.Pitch {
		t.Fatalf("generated modules differ in footprint: %dx%d vs %dx%d",
			mod.NX, mod.NY, alt.NX, alt.NY)
	}
	return twoByTwo(t, mod), mod, alt
}

func sessionDelayDiff(t *testing.T, s *Session, want *Design, mode Mode) float64 {
	t.Helper()
	got, err := s.Graph().MaxDelay()
	if err != nil {
		t.Fatal(err)
	}
	res, err := want.Analyze(mode)
	if err != nil {
		t.Fatal(err)
	}
	return formsAgree(got, res.Delay)
}

func TestSessionMatchesAnalyze(t *testing.T) {
	d, _, _ := sessionDesign(t)
	for _, mode := range []Mode{FullCorrelation, GlobalOnly} {
		s, err := NewSession(context.Background(), d.CopyStructure(), mode, AnalyzeOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if diff := sessionDelayDiff(t, s, d, mode); diff > 1e-9 {
			t.Fatalf("mode %v: session stitch differs from Analyze by %g", mode, diff)
		}
	}
}

func TestSessionSwapModule(t *testing.T) {
	d, mod, alt := sessionDesign(t)
	for _, mode := range []Mode{FullCorrelation, GlobalOnly} {
		s, err := NewSession(context.Background(), d.CopyStructure(), mode, AnalyzeOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		// Swap instance B to the re-characterized module; the from-scratch
		// reference is a fresh design with the same swap applied.
		if err := s.SwapModule(context.Background(), "B", alt); err != nil {
			t.Fatal(err)
		}
		want := d.CopyStructure()
		want.Instances[1].Module = alt
		if diff := sessionDelayDiff(t, s, want, mode); diff > 1e-9 {
			t.Fatalf("mode %v: post-swap session differs from Analyze by %g", mode, diff)
		}
		// Swap back: the session must return to the original answer.
		if err := s.SwapModule(context.Background(), "B", mod); err != nil {
			t.Fatal(err)
		}
		if diff := sessionDelayDiff(t, s, d, mode); diff > 1e-9 {
			t.Fatalf("mode %v: swap round-trip differs from Analyze by %g", mode, diff)
		}
	}
}

func TestSessionSwapUnknownInstance(t *testing.T) {
	d, _, alt := sessionDesign(t)
	s, err := NewSession(context.Background(), d.CopyStructure(), FullCorrelation, AnalyzeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SwapModule(context.Background(), "nope", alt); err == nil {
		t.Fatal("unknown instance accepted")
	}
	if err := s.SwapModule(context.Background(), "A", nil); err == nil {
		t.Fatal("nil module accepted")
	}
	// The failed swaps must not have corrupted the session.
	if diff := sessionDelayDiff(t, s, d, FullCorrelation); diff > 1e-9 {
		t.Fatalf("failed swap corrupted the session (diff %g)", diff)
	}
}

// TestSessionSwapInterrupted checks the transactional contract: a swap
// cancelled mid-derivation must leave the session fully on its previous
// state — design, prep, caches and top graph — and a later swap succeeds.
func TestSessionSwapInterrupted(t *testing.T) {
	d, _, alt := sessionDesign(t)
	s, err := NewSession(context.Background(), d.CopyStructure(), FullCorrelation, AnalyzeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.SwapModule(ctx, "B", alt); err == nil {
		t.Fatal("cancelled swap reported success")
	}
	if s.Design().Instances[1].Module == alt {
		t.Fatal("failed swap committed the module")
	}
	if diff := sessionDelayDiff(t, s, d, FullCorrelation); diff > 1e-9 {
		t.Fatalf("failed swap corrupted the session (diff %g)", diff)
	}
	// The same swap applies cleanly afterwards.
	if err := s.SwapModule(context.Background(), "B", alt); err != nil {
		t.Fatal(err)
	}
	want := d.CopyStructure()
	want.Instances[1].Module = alt
	if diff := sessionDelayDiff(t, s, want, FullCorrelation); diff > 1e-9 {
		t.Fatalf("post-recovery swap differs from Analyze by %g", diff)
	}
}

func TestSessionSetNetDelay(t *testing.T) {
	d, _, _ := sessionDesign(t)
	s, err := NewSession(context.Background(), d.CopyStructure(), FullCorrelation, AnalyzeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetNetDelay(0, 35); err != nil {
		t.Fatal(err)
	}
	want := d.CopyStructure()
	want.Nets[0].Delay = 35
	if diff := sessionDelayDiff(t, s, want, FullCorrelation); diff > 1e-9 {
		t.Fatalf("net-delay edit differs from Analyze by %g", diff)
	}
	if err := s.SetNetDelay(-1, 1); err == nil {
		t.Fatal("negative net index accepted")
	}
	if err := s.SetNetDelay(0, -5); err == nil {
		t.Fatal("negative delay accepted")
	}
	// A restitch (module swap) must preserve the edited net delay.
	if err := s.SwapModule(context.Background(), "A", s.Design().Instances[0].Module); err != nil {
		t.Fatal(err)
	}
	if diff := sessionDelayDiff(t, s, want, FullCorrelation); diff > 1e-9 {
		t.Fatalf("restitch lost the net-delay edit (diff %g)", diff)
	}
}

// TestSessionSequentialMatchesAnalyze: a session over a clocked design
// stitches every register and clock root, as Analyze does, so its delay
// and setup/hold slacks match AnalyzeCtx. (A session-private stitcher
// used to drop the sequential metadata: no registers, no clock roots, and
// a nil delay because nothing reached the outputs.)
func TestSessionSequentialMatchesAnalyze(t *testing.T) {
	d := twoByTwo(t, buildSeqModule(t, "sm4", 4))
	clock := timing.ClockSpec{PeriodPS: 800, SkewPS: 10, JitterPS: 5}
	ctx := context.Background()
	for _, mode := range []Mode{FullCorrelation, GlobalOnly} {
		res, err := d.AnalyzeCtx(ctx, mode, AnalyzeOptions{Workers: 1, Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSession(ctx, d.CopyStructure(), mode, AnalyzeOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		g := s.Graph()
		if len(g.Registers) == 0 || len(g.Registers) != len(res.Graph.Registers) ||
			len(g.ClockRoots) != len(res.Graph.ClockRoots) {
			t.Fatalf("mode %v: session top has %d registers / %d clock roots, Analyze %d / %d",
				mode, len(g.Registers), len(g.ClockRoots), len(res.Graph.Registers), len(res.Graph.ClockRoots))
		}
		delay, err := g.MaxDelay()
		if err != nil {
			t.Fatal(err)
		}
		if diff := formsAgree(delay, res.Delay); diff > 1e-9 {
			t.Fatalf("mode %v: session delay differs from Analyze by %g", mode, diff)
		}
		seq, err := g.SequentialSlacks(clock)
		if err != nil {
			t.Fatal(err)
		}
		if diff := formsAgree(seq.WorstSetup, res.Sequential.WorstSetup); diff > 1e-9 {
			t.Fatalf("mode %v: session setup slack differs from Analyze by %g", mode, diff)
		}
		if diff := formsAgree(seq.WorstHold, res.Sequential.WorstHold); diff > 1e-9 {
			t.Fatalf("mode %v: session hold slack differs from Analyze by %g", mode, diff)
		}
	}
}

// sameBits reports whether two forms are bit-identical.
func sameBits(a, b *canon.Form) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !eq(a.Nominal, b.Nominal) || !eq(a.Rand, b.Rand) || len(a.Glob) != len(b.Glob) || len(a.Loc) != len(b.Loc) {
		return false
	}
	for i := range a.Glob {
		if !eq(a.Glob[i], b.Glob[i]) {
			return false
		}
	}
	for i := range a.Loc {
		if !eq(a.Loc[i], b.Loc[i]) {
			return false
		}
	}
	return true
}

// TestSessionEditsLeaveDesignCacheIntact: a session's top graph shares its
// instance edge forms with the source design's prep cache (the prep a
// CopyStructure copy inherits). Edits must replace those forms, never
// write through them: after a net-delay edit, an edge scale on a shared
// instance edge, a module swap and the swap back, the source design's next
// analysis is a prep-cache hit and bit-identical to its analysis before
// the session existed. The swap back reuses the inherited prep instead of
// re-deriving it.
func TestSessionEditsLeaveDesignCacheIntact(t *testing.T) {
	d, mod, alt := sessionDesign(t)
	ctx := context.Background()
	ref, err := d.Analyze(FullCorrelation)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(ctx, d.CopyStructure(), FullCorrelation, AnalyzeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Graph().Edges[0].Delay != &d.preps[FullCorrelation].p.edges[0][0] {
		t.Fatal("session top graph does not share the design's cached edge forms")
	}
	if err := s.Graph().ScaleEdgeDelay(0, 1.5); err != nil {
		t.Fatal(err)
	}
	if err := s.SetNetDelay(0, 35); err != nil {
		t.Fatal(err)
	}
	_, m0 := PrepCacheStats()
	if err := s.SwapModule(ctx, "B", alt); err != nil {
		t.Fatal(err)
	}
	if err := s.SwapModule(ctx, "B", mod); err != nil {
		t.Fatal(err)
	}
	if _, m1 := PrepCacheStats(); m1-m0 != 1 {
		t.Fatalf("swap and swap back computed %d preps, want 1 (the swap back reuses the inherited prep)", m1-m0)
	}

	h0, m0 := PrepCacheStats()
	res, err := d.Analyze(FullCorrelation)
	if err != nil {
		t.Fatal(err)
	}
	if h1, m1 := PrepCacheStats(); h1 != h0+1 || m1 != m0 {
		t.Fatalf("source design re-analysis: %d hits, %d misses; want 1 hit, 0 misses", h1-h0, m1-m0)
	}
	if !sameBits(res.Delay, ref.Delay) {
		t.Fatal("session edits changed the source design's delay")
	}
	for ei := range ref.Graph.Edges {
		if !sameBits(res.Graph.Edges[ei].Delay, ref.Graph.Edges[ei].Delay) {
			t.Fatalf("session edits changed the source design's edge %d", ei)
		}
	}
}

// TestDerivedPrepMatchesColdPrep: a module swap on a CopyStructure copy
// derives its prep from the inherited one — sharing the partition and every
// unswapped instance's replacement matrix and rewritten edges, re-deriving
// only the swapped instance — and the analysis over it is bit-identical to
// a cold analysis that computes the whole prep from scratch.
func TestDerivedPrepMatchesColdPrep(t *testing.T) {
	d, _, alt := sessionDesign(t)
	if _, err := d.Analyze(FullCorrelation); err != nil {
		t.Fatal(err)
	}
	dd := d.CopyStructure()
	dd.Instances[1].Module = alt
	warm, err := dd.Analyze(FullCorrelation)
	if err != nil {
		t.Fatal(err)
	}
	base, derived := d.preps[FullCorrelation].p, dd.preps[FullCorrelation].p
	if derived == base || derived.part != base.part {
		t.Fatal("the swap did not derive its prep from the inherited one")
	}
	for i := range dd.Instances {
		shared := &derived.edges[i][0] == &base.edges[i][0] && derived.repl[i] == base.repl[i]
		if shared != (i != 1) {
			t.Fatalf("instance %d: shares the inherited units = %v, want %v", i, shared, i != 1)
		}
	}
	cold, err := dd.AnalyzeOpt(FullCorrelation, AnalyzeOptions{Workers: 1, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(warm.Delay, cold.Delay) {
		t.Fatal("derived-prep delay differs from the cold analysis")
	}
	for ei := range cold.Graph.Edges {
		if !sameBits(warm.Graph.Edges[ei].Delay, cold.Graph.Edges[ei].Delay) {
			t.Fatalf("derived-prep edge %d differs from the cold analysis", ei)
		}
	}
}
