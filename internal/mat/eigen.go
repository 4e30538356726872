package mat

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Eigen holds the eigendecomposition of a symmetric matrix: A = V diag(L) V^T
// with orthonormal eigenvector columns in V and eigenvalues L sorted in
// descending order.
type Eigen struct {
	Values  []float64
	Vectors *Dense // column j is the eigenvector for Values[j]
}

// maxQLIterations bounds the implicit QL iterations spent on one
// eigenvalue (the EISPACK limit). With Wilkinson shifts convergence is
// cubic and takes two or three iterations for covariance matrices; a NaN
// in the input never converges and runs into the bound.
const maxQLIterations = 30

var errNoConvergence = errors.New("mat: EigenSym did not converge")

// EigenSym computes the eigendecomposition of a symmetric matrix by
// Householder reduction to tridiagonal form followed by the implicit QL
// algorithm with Wilkinson shifts (the EISPACK tred2/tql2 pair, O(n^3)).
// The input is not modified. It returns an error when the matrix is not
// square/symmetric or the iteration fails to converge. Eigenpairs with
// equal eigenvalues keep the order the QL iteration produced them in.
func EigenSym(a *Dense) (*Eigen, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("mat: EigenSym needs a square matrix, got %dx%d", a.rows, a.cols)
	}
	if !a.IsSymmetric(1e-9 * (1 + maxAbs(a))) {
		return nil, errors.New("mat: EigenSym needs a symmetric matrix")
	}
	n := a.rows
	// Both phases work on Q^T, so the transformation loops run along rows:
	// row j of qt ends up as the eigenvector for d[j].
	qt := a.T()
	d := make([]float64, n)
	e := make([]float64, n)
	tridiagonalize(qt, d, e)
	if err := tridiagonalQL(qt, d, e); err != nil {
		return nil, err
	}

	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return d[idx[i]] > d[idx[j]] })
	vals := make([]float64, n)
	vecs := NewDense(n, n)
	for col, j := range idx {
		vals[col] = d[j]
		for r, v := range qt.Row(j) {
			vecs.data[r*n+col] = v
		}
	}
	return &Eigen{Values: vals, Vectors: vecs}, nil
}

// tridiagonalize is tred2: it reduces the symmetric matrix held in qt to
// tridiagonal form by Householder similarity transformations, leaving the
// diagonal in d, the subdiagonal in e[1:], and the accumulated orthogonal
// transformation transposed in qt. qt[j][k] plays the part of tred2's
// V[k][j], so every inner loop walks a row.
func tridiagonalize(qt *Dense, d, e []float64) {
	n := qt.rows
	for j := range d {
		d[j] = qt.At(j, n-1)
	}
	for i := n - 1; i > 0; i-- {
		var scale, h float64
		for _, v := range d[:i] {
			scale += math.Abs(v)
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = qt.At(j, i-1)
				qt.Set(j, i, 0)
				qt.Set(i, j, 0)
			}
			d[i] = h
			continue
		}
		// Householder vector, scaled against under/overflow.
		for k := range d[:i] {
			d[k] /= scale
			h += d[k] * d[k]
		}
		f := d[i-1]
		g := math.Sqrt(h)
		if f > 0 {
			g = -g
		}
		e[i] = scale * g
		h -= f * g
		d[i-1] = f - g
		clear(e[:i])
		// e = A u over the leading i x i block (upper triangle of qt).
		qi := qt.Row(i)
		for j := 0; j < i; j++ {
			row := qt.Row(j)[:i]
			f = d[j]
			qi[j] = f
			g = e[j] + row[j]*f
			for k := j + 1; k < i; k++ {
				g += row[k] * d[k]
				e[k] += row[k] * f
			}
			e[j] = g
		}
		f = 0
		for j := range e[:i] {
			e[j] /= h
			f += e[j] * d[j]
		}
		hh := f / (h + h)
		for j := range e[:i] {
			e[j] -= hh * d[j]
		}
		// Rank-two update A -= u p^T + p u^T.
		for j := 0; j < i; j++ {
			row := qt.Row(j)[:i]
			f, g = d[j], e[j]
			for k := j; k < i; k++ {
				row[k] -= f*e[k] + g*d[k]
			}
			d[j] = row[i-1]
			qt.Set(j, i, 0)
		}
		d[i] = h
	}

	// Accumulate the transformations.
	for i := 0; i < n-1; i++ {
		qt.Set(i, n-1, qt.At(i, i))
		qt.Set(i, i, 1)
		u := qt.Row(i + 1)[:i+1]
		if h := d[i+1]; h != 0 {
			for k, v := range u {
				d[k] = v / h
			}
			for j := 0; j <= i; j++ {
				row := qt.Row(j)[:i+1]
				var g float64
				for k, v := range u {
					g += v * row[k]
				}
				for k := range row {
					row[k] -= g * d[k]
				}
			}
		}
		clear(u)
	}
	for j := range d {
		d[j] = qt.At(j, n-1)
		qt.Set(j, n-1, 0)
	}
	qt.Set(n-1, n-1, 1)
	e[0] = 0
}

// tridiagonalQL is tql2: it diagonalizes the tridiagonal matrix (d, e[1:])
// by implicit QL iterations with Wilkinson shifts, leaving the eigenvalues
// in d and applying every rotation to the rows of qt.
func tridiagonalQL(qt *Dense, d, e []float64) error {
	n := len(d)
	copy(e, e[1:])
	e[n-1] = 0
	var f, tst1 float64
	const eps = 0x1p-52
	for l := 0; l < n; l++ {
		// Find a negligible subdiagonal element; e[n-1] is zero.
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n-1 && !(math.Abs(e[m]) <= eps*tst1) {
			m++
		}
		for iter := 0; m > l; iter++ {
			if iter == maxQLIterations {
				return errNoConvergence
			}
			// Wilkinson shift.
			g := d[l]
			p := (d[l+1] - g) / (2 * e[l])
			r := math.Hypot(p, 1)
			if p < 0 {
				r = -r
			}
			d[l] = e[l] / (p + r)
			d[l+1] = e[l] * (p + r)
			dl1 := d[l+1]
			h := g - d[l]
			for i := l + 2; i < n; i++ {
				d[i] -= h
			}
			f += h

			// Implicit QL sweep from m up to l.
			p = d[m]
			c, c2, c3 := 1.0, 1.0, 1.0
			el1 := e[l+1]
			var s, s2 float64
			for i := m - 1; i >= l; i-- {
				c3, c2, s2 = c2, c, s
				g = c * e[i]
				h = c * p
				r = math.Hypot(p, e[i])
				e[i+1] = s * r
				s = e[i] / r
				c = p / r
				p = c*d[i] - s*g
				d[i+1] = h + s*(c*g+s*d[i])
				rotateRows(qt.Row(i), qt.Row(i+1), c, s)
			}
			p = -s * s2 * c3 * el1 * e[l] / dl1
			e[l] = s * p
			d[l] = c * p
			if math.Abs(e[l]) <= eps*tst1 {
				break
			}
		}
		d[l] += f
		e[l] = 0
	}
	for _, v := range d {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errNoConvergence
		}
	}
	return nil
}

// rotateRows applies the plane rotation of one QL step to rows x and y of
// Q^T (columns i and i+1 of Q).
func rotateRows(x, y []float64, c, s float64) {
	y = y[:len(x)]
	for k, xv := range x {
		h := y[k]
		y[k] = s*xv + c*h
		x[k] = c*xv - s*h
	}
}

func maxAbs(a *Dense) float64 {
	var m float64
	for _, v := range a.data {
		m = math.Max(m, math.Abs(v))
	}
	return m
}

// Cholesky computes the lower-triangular factor L with A = L L^T for a
// symmetric positive semi-definite matrix. Small negative pivots (within
// tol of zero, as arise from clamped correlation models) are treated as
// zero; a pivot below -tol is an error.
func Cholesky(a *Dense) (*Dense, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("mat: Cholesky needs a square matrix, got %dx%d", a.rows, a.cols)
	}
	n := a.rows
	tol := 1e-9 * (1 + maxAbs(a))
	l := NewDense(n, n)
	for j := 0; j < n; j++ {
		var diag float64
		{
			s := a.At(j, j)
			lrow := l.Row(j)
			for k := 0; k < j; k++ {
				s -= lrow[k] * lrow[k]
			}
			diag = s
		}
		switch {
		case diag < -tol:
			return nil, fmt.Errorf("mat: Cholesky pivot %d is negative (%g): matrix not PSD", j, diag)
		case diag <= tol:
			// Semi-definite direction: zero column.
			l.Set(j, j, 0)
			continue
		}
		d := math.Sqrt(diag)
		l.Set(j, j, d)
		ljrow := l.Row(j)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			lirow := l.Row(i)
			for k := 0; k < j; k++ {
				s -= lirow[k] * ljrow[k]
			}
			l.Set(i, j, s/d)
		}
	}
	return l, nil
}
