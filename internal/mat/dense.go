// Package mat provides the small dense linear-algebra substrate used by the
// SSTA engine: dense matrices, a symmetric eigendecomposition (Householder
// tridiagonalization plus implicit QL) for the PCA of spatial-correlation
// covariance matrices, and a Cholesky factorization for Monte Carlo
// sampling of correlated Gaussians.
//
// The package is deliberately minimal and stdlib-only. Matrices in this
// project are covariance matrices over die grids, from a handful of rows
// to 1024 (a 32x32 grid). The grid PCA runs on every graph build, model
// load and cold hierarchical prep, so the eigensolver must be O(n^3) once,
// with its inner loops on contiguous rows: about 50 ms at n = 256 and a
// few seconds at n = 1024 on a 2-vCPU host.
package mat

import (
	"errors"
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a zeroed r x c matrix.
func NewDense(r, c int) *Dense {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// FromRows builds a matrix from row slices. All rows must have equal length.
func FromRows(rows [][]float64) (*Dense, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, errors.New("mat: FromRows needs at least one non-empty row")
	}
	c := len(rows[0])
	m := NewDense(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("mat: ragged rows: row %d has %d entries, want %d", i, len(row), c)
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m, nil
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Dense) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Clone returns a deep copy of the matrix.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*m.rows+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// Mul returns the matrix product a*b.
func Mul(a, b *Dense) (*Dense, error) {
	if a.cols != b.rows {
		return nil, fmt.Errorf("mat: Mul dimension mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols)
	}
	out := NewDense(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := out.data[i*b.cols : (i+1)*b.cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out, nil
}

// MulVec returns m*x for a column vector x.
func (m *Dense) MulVec(x []float64) ([]float64, error) {
	if len(x) != m.cols {
		return nil, fmt.Errorf("mat: MulVec dimension mismatch %dx%d * %d", m.rows, m.cols, len(x))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// MulVecT returns m^T * x, i.e. the vector whose j-th entry is the dot
// product of column j of m with x. This avoids materializing the transpose
// in the hot replacement path.
func (m *Dense) MulVecT(x []float64) ([]float64, error) {
	if len(x) != m.rows {
		return nil, fmt.Errorf("mat: MulVecT dimension mismatch %dx%d^T * %d", m.rows, m.cols, len(x))
	}
	out := make([]float64, m.cols)
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			out[j] += xv * v
		}
	}
	return out, nil
}

// IsSymmetric reports whether the matrix is square and symmetric to within
// tol in absolute terms.
func (m *Dense) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// MaxAbsDiff returns the maximum absolute elementwise difference between two
// equal-shaped matrices.
func MaxAbsDiff(a, b *Dense) (float64, error) {
	if a.rows != b.rows || a.cols != b.cols {
		return 0, fmt.Errorf("mat: MaxAbsDiff shape mismatch %dx%d vs %dx%d", a.rows, a.cols, b.rows, b.cols)
	}
	var d float64
	for i, v := range a.data {
		d = math.Max(d, math.Abs(v-b.data[i]))
	}
	return d, nil
}
