package variation

import (
	"testing"

	"repro/internal/mat"
)

// quadPartitionCenters lays out grid centers the way hier's design
// partition does (paper Fig. 4): four instances of an nx x ny module grid
// of pitch mp, gap design pitches dp apart, instance grids first, then the
// design-pitch filler grids whose centers no instance covers. With
// mp != dp and gap > 0 the partition mixes two grid sizes: for 3x2
// modules, 24 instance grids of pitch mp and 8 filler grids of pitch dp.
func quadPartitionCenters(nx, ny int, mp, dp float64, gap int) [][2]float64 {
	w, h, g := float64(nx)*mp, float64(ny)*mp, float64(gap)*dp
	origins := [][2]float64{{0, 0}, {0, h + g}, {w + g, 0}, {w + g, h + g}}
	var centers [][2]float64
	for _, o := range origins {
		for gy := 0; gy < ny; gy++ {
			for gx := 0; gx < nx; gx++ {
				centers = append(centers, [2]float64{o[0] + (float64(gx)+0.5)*mp, o[1] + (float64(gy)+0.5)*mp})
			}
		}
	}
	fx, fy := int((2*w+g)/dp+0.5), int((2*h+g)/dp+0.5)
	for gy := 0; gy < fy; gy++ {
		for gx := 0; gx < fx; gx++ {
			c := [2]float64{(float64(gx) + 0.5) * dp, (float64(gy) + 0.5) * dp}
			covered := false
			for _, o := range origins {
				if c[0] >= o[0] && c[0] < o[0]+w && c[1] >= o[1] && c[1] < o[1]+h {
					covered = true
				}
			}
			if !covered {
				centers = append(centers, c)
			}
		}
	}
	return centers
}

// TestGridModelBasisInvariants pins what every consumer of the grid PCA
// relies on, independent of which eigenbasis the solver returns inside a
// repeated eigenvalue: A A^T reproduces C, Ainv is a left inverse of A,
// and the retained component count equals the one the cyclic Jacobi
// solver produced for the same grids (internal/mat keeps it as the
// reference and checks the spectra directly).
func TestGridModelBasisInvariants(t *testing.T) {
	corr, err := DefaultCorrelation()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		build func() (*GridModel, error)
		comps int
	}{
		{"2x1", func() (*GridModel, error) { return NewGridModel(2, 1, 10, corr) }, 2},
		{"3x2", func() (*GridModel, error) { return NewGridModel(3, 2, 10, corr) }, 6},
		{"4x4", func() (*GridModel, error) { return NewGridModel(4, 4, 10, corr) }, 16},
		{"5x4", func() (*GridModel, error) { return NewGridModel(5, 4, 10, corr) }, 20},
		{"16x16", func() (*GridModel, error) { return NewGridModel(16, 16, 10, corr) }, 256},
		{"hetero quad", func() (*GridModel, error) {
			return NewGridModelFromCenters(15, corr, quadPartitionCenters(3, 2, 10, 15, 1))
		}, 32},
	}
	for _, tc := range cases {
		gm, err := tc.build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if gm.Comps != tc.comps {
			t.Errorf("%s: %d components, Jacobi reference kept %d", tc.name, gm.Comps, tc.comps)
		}
		aat, _ := mat.Mul(gm.A, gm.A.T())
		if d, _ := mat.MaxAbsDiff(aat, gm.C); d > 1e-12 {
			t.Errorf("%s: ||A A^T - C|| = %.3g above 1e-12", tc.name, d)
		}
		ainvA, _ := mat.Mul(gm.Ainv, gm.A)
		if d, _ := mat.MaxAbsDiff(ainvA, mat.Identity(gm.Comps)); d > 1e-12 {
			t.Errorf("%s: ||Ainv A - I|| = %.3g above 1e-12", tc.name, d)
		}
	}
}
