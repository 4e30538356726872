package ssta

import (
	"math"
	"testing"

	"repro/internal/mat"
)

// The numbers below were recorded with the cyclic Jacobi eigensolver, seed
// 1. The grid PCA basis is free inside repeated eigenvalues, and canonical
// forms only meet through sums and inner products of their coefficient
// vectors, so a different solver may move the basis but not the answers.
func TestAnswersIndependentOfPCABasis(t *testing.T) {
	const tol = 1e-9
	near := func(what string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > tol*math.Abs(want) {
			t.Errorf("%s = %.17g, Jacobi-basis reference %.17g", what, got, want)
		}
	}
	flow := DefaultFlow()
	for _, tc := range []struct {
		bench     string
		mean, std float64
	}{
		{"c432", 512.72277094934179, 72.148708807762716},
		{"c880", 713.99404042606045, 99.002827903189669},
	} {
		g, _, err := flow.BenchGraph(tc.bench, 1)
		if err != nil {
			t.Fatal(err)
		}
		d, err := g.MaxDelay()
		if err != nil {
			t.Fatal(err)
		}
		near(tc.bench+" MaxDelay mean", d.Mean(), tc.mean)
		near(tc.bench+" MaxDelay std", d.Std(), tc.std)
	}

	g, plan, err := flow.BenchGraph("c1355", 1)
	if err != nil {
		t.Fatal(err)
	}
	model, err := flow.Extract(g, ExtractOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := NewModule("m", model, plan)
	if err != nil {
		t.Fatal(err)
	}
	d, err := flow.QuadDesign("quad", mod)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		mode      Mode
		mean, std float64
	}{
		{FullCorrelation, 1572.4958599554568, 200.87078782214292},
		{GlobalOnly, 1673.7913102565237, 165.45703351056773},
	} {
		r, err := d.Analyze(tc.mode)
		if err != nil {
			t.Fatal(err)
		}
		near("quad-c1355 "+tc.mode.String()+" mean", r.Delay.Mean(), tc.mean)
		near("quad-c1355 "+tc.mode.String()+" std", r.Delay.Std(), tc.std)
		if r.Partition == nil {
			continue
		}
		// The design partition's own PCA keeps the reference's rank and
		// stays a factor of its correlation matrix.
		gm := r.Partition.Grids
		if gm.Comps != 24 {
			t.Errorf("quad-c1355 partition keeps %d components, reference 24", gm.Comps)
		}
		aat, _ := mat.Mul(gm.A, gm.A.T())
		if e, _ := mat.MaxAbsDiff(aat, gm.C); e > 1e-12 {
			t.Errorf("quad-c1355 partition: ||A A^T - C|| = %.3g", e)
		}
		ainvA, _ := mat.Mul(gm.Ainv, gm.A)
		if e, _ := mat.MaxAbsDiff(ainvA, mat.Identity(gm.Comps)); e > 1e-12 {
			t.Errorf("quad-c1355 partition: ||Ainv A - I|| = %.3g", e)
		}
	}
}
