package mat_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/variation"
)

// TestEigenSymMatchesJacobiOnGrids runs the reference parity check on the
// grid correlation matrices the repository builds (the module grids of the
// benchmark circuits and multipliers, and the heterogeneous quad partition
// of internal/variation's basis test: 3x2 module grids of pitch 10 with
// design-pitch-15 filler, paper Fig. 4), and checks that each grid model
// keeps as many components as the reference spectrum has above variation's
// drop tolerance (1e-10 of the largest eigenvalue, at least 1e-10).
func TestEigenSymMatchesJacobiOnGrids(t *testing.T) {
	corr, err := variation.DefaultCorrelation()
	if err != nil {
		t.Fatal(err)
	}
	grids := map[string]*variation.GridModel{}
	for _, s := range [][2]int{{2, 1}, {3, 2}, {4, 4}, {5, 4}, {16, 16}} {
		if grids[fmt.Sprintf("%dx%d", s[0], s[1])], err = variation.NewGridModel(s[0], s[1], 10, corr); err != nil {
			t.Fatal(err)
		}
	}
	var centers [][2]float64
	for _, o := range [][2]float64{{0, 0}, {0, 35}, {45, 0}, {45, 35}} {
		for gy := 0; gy < 2; gy++ {
			for gx := 0; gx < 3; gx++ {
				centers = append(centers, [2]float64{o[0] + 10*float64(gx) + 5, o[1] + 10*float64(gy) + 5})
			}
		}
	}
	centers = append(centers, [][2]float64{{37.5, 7.5}, {7.5, 22.5}, {22.5, 22.5}, {37.5, 22.5},
		{52.5, 22.5}, {67.5, 22.5}, {37.5, 37.5}, {37.5, 52.5}}...)
	if grids["hetero quad"], err = variation.NewGridModelFromCenters(15, corr, centers); err != nil {
		t.Fatal(err)
	}

	for name, gm := range grids {
		ref := mat.CheckEigenParity(t, name, gm.C)
		keep := 0
		for _, v := range ref.Values {
			if v > 1e-10*math.Max(ref.Values[0], 1) {
				keep++
			}
		}
		if gm.Comps != keep {
			t.Errorf("%s: grid model keeps %d components, reference spectrum %d", name, gm.Comps, keep)
		}
	}
}

var sinkEigen *mat.Eigen

// BenchmarkGridPCA times both solvers on grid correlation matrices. The
// Jacobi reference is left out at 32x32, where it takes minutes.
func BenchmarkGridPCA(b *testing.B) {
	corr, err := variation.DefaultCorrelation()
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{4, 16, 32} {
		gm, err := variation.NewGridModel(n, n, 10, corr)
		if err != nil {
			b.Fatal(err)
		}
		solvers := []struct {
			name string
			fn   func(*mat.Dense) (*mat.Eigen, error)
		}{{"eigensym", mat.EigenSym}, {"jacobi", mat.JacobiEigenSym}}
		for _, s := range solvers {
			if s.name == "jacobi" && n > 16 {
				continue
			}
			b.Run(fmt.Sprintf("%s/%dx%d", s.name, n, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if sinkEigen, err = s.fn(gm.C); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
