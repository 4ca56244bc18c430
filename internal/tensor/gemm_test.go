package tensor

import (
	"fmt"
	"math"
	"testing"

	"zoomer/internal/rng"
)

// gemmAccRef is the textbook i-k-j loop GemmAcc replaced, kept as the
// reference for its accumulation-order contract: per output element,
// terms in increasing k, each product rounded before its add, zero
// entries of op(a) skipped. The explicit float32 conversions keep a
// compiler that fuses multiply-add (which the Go spec allows) to that
// rounding.
func gemmAccRef(dst, a, b *Matrix, transA, transB bool) {
	ar, ac := a.Rows, a.Cols
	if transA {
		ar, ac = ac, ar
	}
	bc := b.Cols
	if transB {
		bc = b.Rows
	}
	at := func(i, k int) float32 {
		if transA {
			return a.Data[k*a.Cols+i]
		}
		return a.Data[i*a.Cols+k]
	}
	for i := 0; i < ar; i++ {
		drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for k := 0; k < ac; k++ {
			av := at(i, k)
			if av == 0 {
				continue
			}
			if transB {
				for j := 0; j < bc; j++ {
					drow[j] += float32(av * b.Data[j*b.Cols+k])
				}
			} else {
				brow := b.Data[k*b.Cols : (k+1)*b.Cols]
				for j, bv := range brow {
					drow[j] += float32(av * bv)
				}
			}
		}
	}
}

// gemmValue draws an operand entry: zeros of both signs, denormals, and
// normal values over a wide range of magnitudes.
func gemmValue(r *rng.RNG) float32 {
	switch r.Intn(10) {
	case 0:
		return 0
	case 1:
		return float32(math.Copysign(0, -1))
	case 2:
		return float32(r.NormFloat64()) * 1e-40
	case 3:
		return float32(r.NormFloat64()) * 1e15
	case 4:
		return float32(r.NormFloat64()) * 1e-15
	default:
		return float32(r.NormFloat64())
	}
}

// gemmOperands returns dst, a and b for op(a) m x k, op(b) k x n and the
// given transposes. A few k are dead: their column of op(a) is all zeros
// of either sign, and their row of op(b) holds Inf and NaN, which only
// the zero skip keeps out of dst.
func gemmOperands(r *rng.RNG, m, k, n int, transA, transB bool) (dst, a, b *Matrix) {
	dst, a, b = NewMatrix(m, n), NewMatrix(m, k), NewMatrix(k, n)
	for _, x := range [][]float32{dst.Data, a.Data, b.Data} {
		for i := range x {
			x[i] = gemmValue(r)
		}
	}
	specials := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	for p := 0; p < k; p++ {
		if r.Intn(5) != 0 {
			continue
		}
		for i := 0; i < m; i++ {
			a.Data[i*k+p] = float32(math.Copysign(0, float64(r.Intn(2)*2-1)))
		}
		for j := 0; j < n; j++ {
			if r.Intn(2) == 0 {
				b.Data[p*n+j] = specials[r.Intn(len(specials))]
			}
		}
	}
	if transA {
		a = Transpose(a)
	}
	if transB {
		b = Transpose(b)
	}
	return dst, a, b
}

// TestGemmAccMatchesReference holds GemmAcc to its accumulation-order
// contract bit for bit: random shapes up to 97 on every side, the
// training step's shapes, all four transpose combinations, a pre-filled
// dst, and signed zeros, denormals and skipped Inf/NaN entries. It runs
// under both kernel dispatches (the purego build runs it too).
func TestGemmAccMatchesReference(t *testing.T) {
	r := rng.New(17)
	var shapes [][3]int
	for _, s := range gemmShapes {
		m, k, n := s[0], s[1], s[2]
		// Each product with the shapes of its two backward products.
		shapes = append(shapes, s, [3]int{m, n, k}, [3]int{k, m, n})
	}
	shapes = append(shapes, [3]int{1, 1, 1}, [3]int{97, 97, 1}, [3]int{1, 97, 97}, [3]int{97, 1, 97})
	for len(shapes) < 3000 {
		s := [3]int{1 + r.Intn(97), 1 + r.Intn(97), 1 + r.Intn(97)}
		if s[0]*s[1]*s[2] <= 20000 {
			shapes = append(shapes, s)
		}
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		for mode := 0; mode < 4; mode++ {
			transA, transB := mode&1 != 0, mode&2 != 0
			dst, a, b := gemmOperands(r, m, k, n, transA, transB)
			want := dst.Clone()
			gemmAccRef(want, a, b, transA, transB)
			GemmAcc(dst, a, b, transA, transB)
			for i, w := range want.Data {
				if got := dst.Data[i]; math.Float32bits(got) != math.Float32bits(w) {
					t.Fatalf("%s: element %d = %v (bits %#x), reference %v (bits %#x)",
						gemmCase(m, k, n, transA, transB), i, got, math.Float32bits(got), w, math.Float32bits(w))
				}
			}
		}
	}
}

func gemmCase(m, k, n int, transA, transB bool) string {
	return fmt.Sprintf("(%dx%d)·(%dx%d) transA=%v transB=%v", m, k, k, n, transA, transB)
}
