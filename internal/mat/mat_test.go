package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %g, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewDensePanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDense(0, 3) did not panic")
		}
	}()
	NewDense(0, 3)
}

func TestSetAt(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 1, 3.5)
	m.Set(1, 0, -2)
	if m.At(0, 1) != 3.5 || m.At(1, 0) != -2 {
		t.Fatalf("Set/At roundtrip failed: %v", m.data)
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %g, want 3", m.At(1, 0))
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged FromRows did not error")
	}
	if _, err := FromRows(nil); err == nil {
		t.Fatal("empty FromRows did not error")
	}
}

func TestIdentity(t *testing.T) {
	m := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Fatalf("Identity At(%d,%d) = %g", i, j, m.At(i, j))
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("T shape = %dx%d", tr.Rows(), tr.Cols())
	}
	if tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Fatalf("T values wrong: %v", tr.data)
	}
}

func TestMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul At(%d,%d) = %g, want %g", i, j, c.At(i, j), want[i][j])
			}
		}
	}
	if _, err := Mul(a, NewDense(3, 2)); err == nil {
		t.Fatal("dimension mismatch did not error")
	}
}

func TestMulVec(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	y, err := m.MulVec([]float64{1, 0, -1})
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != -2 || y[1] != -2 {
		t.Fatalf("MulVec = %v, want [-2 -2]", y)
	}
	if _, err := m.MulVec([]float64{1}); err == nil {
		t.Fatal("MulVec mismatch did not error")
	}
}

func TestMulVecTMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewDense(5, 3)
	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	x := []float64{1.5, -2, 0.25, 3, -1}
	got, err := m.MulVecT(x)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.T().MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("MulVecT[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if _, err := m.MulVecT([]float64{1}); err == nil {
		t.Fatal("MulVecT mismatch did not error")
	}
}

// randomPSD builds a random symmetric positive semi-definite matrix
// M = B B^T scaled to unit-ish diagonal.
func randomPSD(n int, rng *rand.Rand) *Dense {
	b := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Set(i, j, rng.NormFloat64())
		}
	}
	m, _ := Mul(b, b.T())
	return m
}

func TestEigenSymReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 3, 8, 25} {
		a := randomPSD(n, rng)
		eig, err := EigenSym(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Reconstruct V diag(L) V^T.
		vl := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				vl.Set(i, j, eig.Vectors.At(i, j)*eig.Values[j])
			}
		}
		rec, _ := Mul(vl, eig.Vectors.T())
		d, _ := MaxAbsDiff(a, rec)
		if d > 1e-8*(1+maxAbs(a)) {
			t.Fatalf("n=%d: reconstruction error %g too large", n, d)
		}
	}
}

func TestEigenSymOrthonormalVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomPSD(10, rng)
	eig, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	vtv, _ := Mul(eig.Vectors.T(), eig.Vectors)
	d, _ := MaxAbsDiff(vtv, Identity(10))
	if d > 1e-9 {
		t.Fatalf("V^T V differs from identity by %g", d)
	}
}

func TestEigenSymSortedDescending(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomPSD(12, rng)
	eig, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(eig.Values); i++ {
		if eig.Values[i] > eig.Values[i-1]+1e-12 {
			t.Fatalf("eigenvalues not sorted: %v", eig.Values)
		}
	}
	// PSD input: all eigenvalues >= -tol.
	for _, v := range eig.Values {
		if v < -1e-8 {
			t.Fatalf("PSD matrix produced negative eigenvalue %g", v)
		}
	}
}

func TestEigenSymKnownMatrix(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a, _ := FromRows([][]float64{{2, 1}, {1, 2}})
	eig, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eig.Values[0]-3) > 1e-12 || math.Abs(eig.Values[1]-1) > 1e-12 {
		t.Fatalf("eigenvalues = %v, want [3 1]", eig.Values)
	}
}

func TestEigenSymRejectsNonSymmetric(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {0, 1}})
	if _, err := EigenSym(a); err == nil {
		t.Fatal("non-symmetric input did not error")
	}
	if _, err := EigenSym(NewDense(2, 3)); err == nil {
		t.Fatal("non-square input did not error")
	}
}

func TestCholeskyRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 5, 20} {
		a := randomPSD(n, rng)
		// Make strictly PD by adding to the diagonal.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+0.5)
		}
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		rec, _ := Mul(l, l.T())
		d, _ := MaxAbsDiff(a, rec)
		if d > 1e-8*(1+maxAbs(a)) {
			t.Fatalf("n=%d: LL^T error %g", n, d)
		}
		// Lower triangular check.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if l.At(i, j) != 0 {
					t.Fatalf("L not lower triangular at (%d,%d)", i, j)
				}
			}
		}
	}
}

func TestCholeskySemiDefinite(t *testing.T) {
	// Rank-1 PSD matrix: ones everywhere.
	a, _ := FromRows([][]float64{{1, 1, 1}, {1, 1, 1}, {1, 1, 1}})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := Mul(l, l.T())
	d, _ := MaxAbsDiff(a, rec)
	if d > 1e-8 {
		t.Fatalf("PSD Cholesky error %g", d)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err == nil {
		t.Fatal("indefinite matrix did not error")
	}
}

func TestMaxAbsDiffShapeMismatch(t *testing.T) {
	if _, err := MaxAbsDiff(NewDense(2, 2), NewDense(2, 3)); err == nil {
		t.Fatal("shape mismatch did not error")
	}
}

// Property: for any PSD matrix, the eigendecomposition reconstructs it and
// the eigenvector matrix is orthogonal.
func TestEigenSymPropertyQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		a := randomPSD(n, rng)
		eig, err := EigenSym(a)
		if err != nil {
			return false
		}
		vtv, _ := Mul(eig.Vectors.T(), eig.Vectors)
		d, _ := MaxAbsDiff(vtv, Identity(n))
		return d < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: Cholesky of L L^T + eps I reproduces the input.
func TestCholeskyPropertyQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		a := randomPSD(n, rng)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+0.25)
		}
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		rec, _ := Mul(l, l.T())
		d, _ := MaxAbsDiff(a, rec)
		return d < 1e-7*(1+maxAbs(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestClone(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone aliases the original")
	}
}

func TestRowIsView(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	r := a.Row(1)
	r[0] = 7
	if a.At(1, 0) != 7 {
		t.Fatal("Row should be a view into the matrix")
	}
}
