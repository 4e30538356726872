package mat

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// This file keeps cyclic Jacobi, the solver EigenSym used before the
// tridiagonal QL pair, as the reference oracle for EigenSym. It is exported
// so the external grid tests (grid_parity_test.go) can call it too.

// maxJacobiSweeps bounds the cyclic Jacobi iteration. Convergence for
// symmetric matrices is quadratic; well-conditioned covariance matrices
// converge in well under 20 sweeps.
const maxJacobiSweeps = 100

// JacobiEigenSym is the reference eigendecomposition: cyclic Jacobi
// rotations, O(n^3) per sweep, eigenpairs sorted by descending eigenvalue.
func JacobiEigenSym(a *Dense) (*Eigen, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("mat: JacobiEigenSym needs a square matrix, got %dx%d", a.rows, a.cols)
	}
	if !a.IsSymmetric(1e-9 * (1 + maxAbs(a))) {
		return nil, errors.New("mat: JacobiEigenSym needs a symmetric matrix")
	}
	n := a.rows
	w := a.Clone()
	v := Identity(n)

	for sweep := 0; sweep < maxJacobiSweeps; sweep++ {
		off := offDiagNorm(w)
		if off <= 1e-14*(1+frobNorm(w)) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app := w.At(p, p)
				aqq := w.At(q, q)
				// Classic stable rotation computation (Golub & Van Loan).
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				applyJacobiRotation(w, v, p, q, c, s)
			}
		}
		if sweep == maxJacobiSweeps-1 {
			return nil, errors.New("mat: JacobiEigenSym did not converge")
		}
	}

	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = w.At(i, i)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return vals[idx[i]] > vals[idx[j]] })
	sortedVals := make([]float64, n)
	sortedVecs := NewDense(n, n)
	for newCol, oldCol := range idx {
		sortedVals[newCol] = vals[oldCol]
		for r := 0; r < n; r++ {
			sortedVecs.Set(r, newCol, v.At(r, oldCol))
		}
	}
	return &Eigen{Values: sortedVals, Vectors: sortedVecs}, nil
}

// applyJacobiRotation applies the rotation J(p,q,c,s) as A <- J^T A J and
// accumulates V <- V J.
func applyJacobiRotation(a, v *Dense, p, q int, c, s float64) {
	n := a.rows
	for k := 0; k < n; k++ {
		akp := a.At(k, p)
		akq := a.At(k, q)
		a.Set(k, p, c*akp-s*akq)
		a.Set(k, q, s*akp+c*akq)
	}
	for k := 0; k < n; k++ {
		apk := a.At(p, k)
		aqk := a.At(q, k)
		a.Set(p, k, c*apk-s*aqk)
		a.Set(q, k, s*apk+c*aqk)
	}
	for k := 0; k < n; k++ {
		vkp := v.At(k, p)
		vkq := v.At(k, q)
		v.Set(k, p, c*vkp-s*vkq)
		v.Set(k, q, s*vkp+c*vkq)
	}
}

func offDiagNorm(a *Dense) float64 {
	var s float64
	for i := 0; i < a.rows; i++ {
		for j := 0; j < a.cols; j++ {
			if i != j {
				s += a.At(i, j) * a.At(i, j)
			}
		}
	}
	return math.Sqrt(s)
}

func frobNorm(a *Dense) float64 {
	var s float64
	for _, v := range a.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// CheckEigenParity checks EigenSym on a against the Jacobi reference:
// eigenvalues agree to 1e-10 of the spectral radius, and both
// ||V diag(L) V^T - A|| and ||V^T V - I|| (max-abs, the first relative to
// max(1, max|a_ij|)) stay within 1e-12*n. Eigenvectors are not compared
// entrywise: inside a repeated eigenvalue any orthonormal basis is right.
// It returns the reference decomposition.
func CheckEigenParity(t *testing.T, name string, a *Dense) *Eigen {
	t.Helper()
	n := a.rows
	got, err := EigenSym(a)
	if err != nil {
		t.Fatalf("%s: EigenSym: %v", name, err)
	}
	ref, err := JacobiEigenSym(a)
	if err != nil {
		t.Fatalf("%s: Jacobi reference: %v", name, err)
	}
	radius := math.Max(math.Abs(ref.Values[0]), math.Abs(ref.Values[n-1]))
	for i, v := range got.Values {
		if d := math.Abs(v - ref.Values[i]); d > 1e-10*radius {
			t.Fatalf("%s: eigenvalue %d = %.17g, reference %.17g (|diff| %.3g, radius %.3g)",
				name, i, v, ref.Values[i], d, radius)
		}
		if i > 0 && v > got.Values[i-1] {
			t.Fatalf("%s: eigenvalues not descending at %d: %v", name, i, got.Values)
		}
	}
	if rec := reconstructionError(a, got); rec > 1e-12*float64(n) {
		t.Fatalf("%s: reconstruction error %.3g above %.3g", name, rec, 1e-12*float64(n))
	}
	vtv, _ := Mul(got.Vectors.T(), got.Vectors)
	if orth, _ := MaxAbsDiff(vtv, Identity(n)); orth > 1e-12*float64(n) {
		t.Fatalf("%s: ||V^T V - I|| = %.3g above %.3g", name, orth, 1e-12*float64(n))
	}
	return ref
}

// reconstructionError is max|V diag(L) V^T - A| / max(1, max|a_ij|).
func reconstructionError(a *Dense, eig *Eigen) float64 {
	n := a.rows
	vl := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			vl.Set(i, j, eig.Vectors.At(i, j)*eig.Values[j])
		}
	}
	rec, _ := Mul(vl, eig.Vectors.T())
	d, _ := MaxAbsDiff(a, rec)
	return d / math.Max(1, maxAbs(a))
}

func TestEigenSymMatchesJacobiRandomPSD(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{1, 2, 3, 8, 25, 64} {
		CheckEigenParity(t, fmt.Sprintf("psd n=%d", n), randomPSD(n, rng))
	}
}

// TestEigenSymMatchesJacobiDegenerate covers repeated eigenvalues, where
// the two solvers may pick different bases of the same eigenspace.
func TestEigenSymMatchesJacobiDegenerate(t *testing.T) {
	CheckEigenParity(t, "identity n=1", Identity(1))
	CheckEigenParity(t, "identity n=9", Identity(9))
	CheckEigenParity(t, "zero n=4", NewDense(4, 4))

	// Block diagonal with four copies of one 3x3 block: every eigenvalue
	// has multiplicity four.
	rng := rand.New(rand.NewSource(3))
	blk := randomPSD(3, rng)
	rep := NewDense(12, 12)
	for b := 0; b < 4; b++ {
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				rep.Set(3*b+i, 3*b+j, blk.At(i, j))
			}
		}
	}
	CheckEigenParity(t, "repeated blocks", rep)

	// A rotated spectrum {5,5,5,2,2,1,1,1,0,0} with a dense eigenbasis.
	spec := []float64{5, 5, 5, 2, 2, 1, 1, 1, 0, 0}
	n := len(spec)
	q, err := EigenSym(randomPSD(n, rng))
	if err != nil {
		t.Fatal(err)
	}
	qd := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			qd.Set(i, j, q.Vectors.At(i, j)*spec[j])
		}
	}
	dense, _ := Mul(qd, q.Vectors.T())
	for i := 0; i < n; i++ { // symmetrize the rounding
		for j := i + 1; j < n; j++ {
			m := 0.5 * (dense.At(i, j) + dense.At(j, i))
			dense.Set(i, j, m)
			dense.Set(j, i, m)
		}
	}
	CheckEigenParity(t, "rotated repeated spectrum", dense)
}

// TestEigenSymNonFiniteDoesNotConverge: a NaN never converges, in either
// solver. EigenSym also refuses an infinite entry, which Jacobi passes
// through as an infinite eigenvalue when it sits on the diagonal.
func TestEigenSymNonFiniteDoesNotConverge(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		a := Identity(3)
		a.Set(1, 1, v)
		if _, err := EigenSym(a); err == nil {
			t.Fatalf("EigenSym accepted a matrix holding %v", v)
		}
	}
	a := Identity(3)
	a.Set(1, 1, math.NaN())
	if _, err := JacobiEigenSym(a); err == nil {
		t.Fatal("Jacobi reference accepted a NaN")
	}
}
