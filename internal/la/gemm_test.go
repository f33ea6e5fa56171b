package la

import (
	"testing"
	"testing/quick"
)

func TestAccumTransDenseSparseAgainstDense(t *testing.T) {
	rng := NewRNG(21)
	a := RandomDense(10, 4, rng)                // rows×k
	s := RandomSparseCSC(10, 6, 3, rng).ToCSR() // rows×m
	out := RandomDense(4, 6, rng)               // accumulate onto non-zero start
	base := out.Clone()
	AccumTransDenseSparse(a, s, out)
	// Reference: base + aᵀ·dense(s).
	want := base
	sd := s.ToDense()
	tmp := NewDense(4, 6)
	for i := 0; i < 4; i++ {
		for j := 0; j < 6; j++ {
			var sum float64
			for r := 0; r < 10; r++ {
				sum += a.At(r, i) * sd.At(r, j)
			}
			tmp.Set(i, j, sum)
		}
	}
	want.CellAdd(tmp)
	if !out.EqualApprox(want, 1e-10) {
		t.Fatal("AccumTransDenseSparse mismatch")
	}
}

func TestAccumSparseMultDenseTAgainstDense(t *testing.T) {
	rng := NewRNG(22)
	s := RandomSparseCSC(8, 5, 2, rng).ToCSR() // rows×m
	h := RandomDense(3, 5, rng)                // k×m
	out := NewDense(8, 3)
	AccumSparseMultDenseT(s, h, out)
	sd := s.ToDense()
	want := NewDense(8, 3)
	for i := 0; i < 8; i++ {
		for k := 0; k < 3; k++ {
			var sum float64
			for j := 0; j < 5; j++ {
				sum += sd.At(i, j) * h.At(k, j)
			}
			want.Set(i, k, sum)
		}
	}
	if !out.EqualApprox(want, 1e-10) {
		t.Fatal("AccumSparseMultDenseT mismatch")
	}
}

func TestAccumTransDenseDenseAgainstDense(t *testing.T) {
	rng := NewRNG(23)
	a := RandomDense(7, 3, rng)
	b := RandomDense(7, 4, rng)
	out := NewDense(3, 4)
	AccumTransDenseDense(a, b, out)
	want := NewDense(3, 4)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			var sum float64
			for r := 0; r < 7; r++ {
				sum += a.At(r, i) * b.At(r, j)
			}
			want.Set(i, j, sum)
		}
	}
	if !out.EqualApprox(want, 1e-10) {
		t.Fatal("AccumTransDenseDense mismatch")
	}
	// Gram matrix is symmetric.
	gram := NewDense(3, 3)
	AccumTransDenseDense(a, a, gram)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if gram.At(i, j) != gram.At(j, i) {
				t.Fatal("Gram matrix not symmetric")
			}
		}
	}
}

// Property: accumulation composes — running a kernel twice doubles the
// contribution.
func TestAccumKernelsAccumulate(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		rows := 2 + rng.Intn(8)
		k := 1 + rng.Intn(4)
		m := 1 + rng.Intn(5)
		a := RandomDense(rows, k, rng)
		s := RandomSparseCSC(rows, m, 1+rng.Intn(rows), rng).ToCSR()
		once := NewDense(k, m)
		AccumTransDenseSparse(a, s, once)
		twice := NewDense(k, m)
		AccumTransDenseSparse(a, s, twice)
		AccumTransDenseSparse(a, s, twice)
		return twice.EqualApprox(once.Clone().Scale(2), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestAccumKernelDimPanics(t *testing.T) {
	a := NewDense(4, 2)
	s := NewSparseCSR(5, 3)
	out := NewDense(2, 3)
	defer func() {
		if recover() == nil {
			t.Error("expected dimension panic")
		}
	}()
	AccumTransDenseSparse(a, s, out)
}
