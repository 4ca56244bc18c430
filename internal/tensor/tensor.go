// Package tensor implements the dense float32 linear-algebra kernels the
// reproduction is built on: vectors, row-major matrices, GEMM, softmax and
// similarity functions. Storage is float32 (matching embedding-table
// practice in large-scale recommendation systems); reductions accumulate
// in float64 for stability.
package tensor

import (
	"fmt"
	"math"
)

// Vec is a dense float32 vector.
type Vec = []float32

// NewVec returns a zero vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Dot returns the inner product of a and b. It panics if lengths differ.
// Four independent float64 accumulator lanes break the add dependency
// chain without giving up the float64 accumulation the rest of the
// package guarantees; the AVX2 kernel keeps the identical lane layout,
// so the result is bit-for-bit the same under either dispatch (see
// dispatch_amd64.go for the contract).
func Dot(a, b Vec) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	return dot(a, b)
}

// DotSq returns (a·b, b·b) in a single pass over b. The focal-biased
// sampler's Tanimoto scoring needs both the cross product and the
// neighbor's squared norm per neighbor; fusing them halves memory traffic
// on the scoring hot path. Bit-identical across dispatch.
func DotSq(a, b Vec) (dot, bsq float32) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: DotSq length mismatch %d vs %d", len(a), len(b)))
	}
	return dotSq(a, b)
}

// Axpy computes y += alpha*x in place. It panics if lengths differ.
// Bit-identical across dispatch (elementwise float32, multiply and add
// rounded separately on both sides of the seam).
func Axpy(alpha float32, x, y Vec) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	axpy(alpha, x, y)
}

// DotAxpy fuses y += alpha*x with the inner product x·w in one traversal
// of x: the serving aggregate both scores a neighbor embedding against an
// attention vector and accumulates it into the output, and fusing keeps x
// cache-resident across the two uses. It panics if lengths differ.
// Bit-identical across dispatch.
func DotAxpy(alpha float32, x, w, y Vec) float32 {
	if len(x) != len(w) || len(x) != len(y) {
		panic(fmt.Sprintf("tensor: DotAxpy length mismatch %d/%d/%d", len(x), len(w), len(y)))
	}
	return dotAxpy(alpha, x, w, y)
}

// DotI8 returns the int32-accumulated inner product of two int8 vectors
// — the scoring kernel of the quantized ANN coarse scan. Every
// intermediate is exact, so the vectorized and generic implementations
// agree bit for bit by construction. It panics if lengths differ.
func DotI8(a, b []int8) int32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: DotI8 length mismatch %d vs %d", len(a), len(b)))
	}
	return dotI8(a, b)
}

// Scale multiplies x by alpha in place.
func Scale(alpha float32, x Vec) {
	for i := range x {
		x[i] *= alpha
	}
}

// Add returns a+b as a new vector.
func Add(a, b Vec) Vec {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Add length mismatch %d vs %d", len(a), len(b)))
	}
	out := make(Vec, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// Sub returns a-b as a new vector.
func Sub(a, b Vec) Vec {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Sub length mismatch %d vs %d", len(a), len(b)))
	}
	out := make(Vec, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// Mul returns the element-wise product a*b as a new vector.
func Mul(a, b Vec) Vec {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Mul length mismatch %d vs %d", len(a), len(b)))
	}
	out := make(Vec, len(a))
	for i := range a {
		out[i] = a[i] * b[i]
	}
	return out
}

// Copy returns a copy of x.
func Copy(x Vec) Vec {
	out := make(Vec, len(x))
	copy(out, x)
	return out
}

// sqNorm64 is the one squared-norm kernel Norm2, SqNorm and Normalize
// all sit on, kept in float64 until each caller's final rounding so the
// three stay mutually consistent (Normalize used to run its own Norm2
// pass; now norm and squared norm come from the same accumulation).
func sqNorm64(x Vec) float64 {
	var s float64
	for _, v := range x {
		s += float64(v) * float64(v)
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x Vec) float32 {
	return float32(math.Sqrt(sqNorm64(x)))
}

// SqNorm returns the squared Euclidean norm of x.
func SqNorm(x Vec) float32 {
	return float32(sqNorm64(x))
}

// Normalize scales x to unit norm in place. A zero vector is left
// unchanged.
func Normalize(x Vec) {
	n := float32(math.Sqrt(sqNorm64(x)))
	if n == 0 {
		return
	}
	Scale(1/n, x)
}

// Cosine returns the cosine similarity of a and b, or 0 when either has
// zero norm (the conventional choice for sparse recommendation features).
func Cosine(a, b Vec) float32 {
	na, nb := Norm2(a), Norm2(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// Tanimoto returns the focal-relevance score of the paper's eq. (5):
//
//	e = (a·b) / (|a|² + |b|² − a·b)
//
// For non-negative vectors it is the continuous Tanimoto coefficient; the
// paper uses it to score neighbor relevance to the focal vector. When the
// denominator is not positive (both vectors zero, or pathological float
// cancellation) it returns 0.
func Tanimoto(a, b Vec) float32 {
	d, bsq := DotSq(a, b)
	den := SqNorm(a) + bsq - d
	if den <= 0 {
		return 0
	}
	return d / den
}

// TanimotoWithSqNorm is Tanimoto with the first argument's squared norm
// precomputed. The focal-biased sampler scores one fixed focal vector
// against every neighbor, so |a|² is loop-invariant and the per-neighbor
// cost drops to a single fused pass over the neighbor's content vector.
func TanimotoWithSqNorm(a Vec, asq float32, b Vec) float32 {
	d, bsq := DotSq(a, b)
	den := asq + bsq - d
	if den <= 0 {
		return 0
	}
	return d / den
}

// Softmax writes the softmax of x into out (which may alias x) and
// returns out. It is numerically stabilized by max subtraction.
func Softmax(x, out Vec) Vec {
	if len(out) != len(x) {
		panic("tensor: Softmax output length mismatch")
	}
	if len(x) == 0 {
		return out
	}
	maxv := x[0]
	for _, v := range x[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range x {
		e := math.Exp(float64(v - maxv))
		out[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range out {
		out[i] *= inv
	}
	return out
}

// Sigmoid returns 1/(1+exp(-x)) computed stably.
func Sigmoid(x float32) float32 {
	if x >= 0 {
		z := float32(math.Exp(-float64(x)))
		return 1 / (1 + z)
	}
	z := float32(math.Exp(float64(x)))
	return z / (1 + z)
}

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("tensor: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) Vec {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MatVec computes out = m · x. It panics on shape mismatch. Each row is
// one Dot-kernel call, so the nn/training forward path rides the same
// 4-lane (and, under dispatch, vectorized) kernel as the serving path
// instead of the old single-accumulator row loop.
func MatVec(m *Matrix, x, out Vec) {
	if len(x) != m.Cols || len(out) != m.Rows {
		panic(fmt.Sprintf("tensor: MatVec shape mismatch (%dx%d)·%d -> %d", m.Rows, m.Cols, len(x), len(out)))
	}
	for i := 0; i < m.Rows; i++ {
		out[i] = dot(m.Data[i*m.Cols:(i+1)*m.Cols], x)
	}
}

// MatVecT computes out = mᵀ · x (x has length Rows, out has length Cols).
// Row i contributes out += x[i]·row — the Axpy kernel — with zero rows
// of x skipped (identical bits either way except for signed-zero inputs,
// and a skip is cheaper than 2·Cols flops). Bit-identical across
// dispatch: elementwise float32 with multiply and add rounded
// separately.
func MatVecT(m *Matrix, x, out Vec) {
	if len(x) != m.Rows || len(out) != m.Cols {
		panic(fmt.Sprintf("tensor: MatVecT shape mismatch (%dx%d)ᵀ·%d -> %d", m.Rows, m.Cols, len(x), len(out)))
	}
	for j := range out {
		out[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		axpy(xi, m.Data[i*m.Cols:(i+1)*m.Cols], out)
	}
}

// MatMul returns a·b as a new matrix, computed by GemmAcc. It panics on
// shape mismatch.
func MatMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	GemmAcc(out, a, b, false, false)
	return out
}

// Transpose returns mᵀ as a new matrix.
func Transpose(m *Matrix) *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*out.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// Mean returns the arithmetic mean of the rows of vs. All rows must share
// a length; the mean of no rows is a zero vector of length dim.
func Mean(vs []Vec, dim int) Vec {
	out := make(Vec, dim)
	if len(vs) == 0 {
		return out
	}
	for _, v := range vs {
		Axpy(1, v, out)
	}
	Scale(1/float32(len(vs)), out)
	return out
}

// Sum accumulates the rows of vs into a fresh vector of length dim.
func Sum(vs []Vec, dim int) Vec {
	out := make(Vec, dim)
	for _, v := range vs {
		Axpy(1, v, out)
	}
	return out
}

// GemmAcc accumulates dst += op(a)·op(b), where op is the optional
// transpose selected by transA/transB. It is the workhorse of autodiff
// backward passes, which need transposed products accumulated into
// existing gradient buffers. It panics on shape mismatch; dst must not
// alias a or b.
//
// Accumulation-order contract: every element of dst adds its k terms
// op(a)[i,k]·op(b)[k,j] to its prior value one at a time, in increasing
// k, each product rounded to float32 before its add, and skips the terms
// whose op(a) entry is zero (±0). That is the order of the textbook
// i-k-j loop, so the result is bit-identical to it for every shape, under
// either kernel dispatch, and training traces stay pinned across changes
// to the loop. Within the contract the loop is chosen by shape:
//   - one output column: a scalar dot over k per output, with the
//     column of op(b) read as the contiguous vector it is;
//   - op(b) row-major: each row update dst[i,:] += op(a)[i,k]·op(b)[k,:]
//     is the axpy kernel (split multiply and add, so it rounds as the
//     scalar loop does);
//   - op(b) transposed: a scalar dot over k between row i of op(a) and a
//     stored row of b.
//
// A transposed op(a) is walked with k outermost, reading the stored rows
// of a, and a transposed single row or column is read as the
// untransposed vector it already is in memory.
func GemmAcc(dst, a, b *Matrix, transA, transB bool) {
	ar, ac := a.Rows, a.Cols
	if transA {
		ar, ac = ac, ar
	}
	br, bc := b.Rows, b.Cols
	if transB {
		br, bc = bc, br
	}
	if ac != br || dst.Rows != ar || dst.Cols != bc {
		panic(fmt.Sprintf("tensor: GemmAcc shape mismatch (%dx%d)·(%dx%d) -> (%dx%d)", ar, ac, br, bc, dst.Rows, dst.Cols))
	}
	transA = transA && a.Rows > 1 && a.Cols > 1
	transB = transB && b.Rows > 1 && b.Cols > 1
	m, k, n := ar, ac, bc
	ad, bd, dd := a.Data[:m*k], b.Data[:k*n], dst.Data[:m*n]
	switch {
	case n == 1 && (transA || k == 1):
		// op(b) is a k-vector and column p of op(a) is contiguous.
		for p, bv := range bd {
			acol := ad[p*m : (p+1)*m]
			out := dd[:len(acol)]
			for i, av := range acol {
				if av != 0 {
					out[i] += float32(av * bv)
				}
			}
		}
	case n == 1:
		// op(b) is a k-vector: one dot per row of a.
		for i := range dd {
			dd[i] = dotSkip(dd[i], ad[i*k:(i+1)*k], bd)
		}
	case !transB && !transA:
		for i := 0; i < m; i++ {
			drow := dd[i*n : (i+1)*n]
			for p, av := range ad[i*k : (i+1)*k] {
				if av != 0 {
					axpy(av, bd[p*n:(p+1)*n], drow)
				}
			}
		}
	case !transB:
		for p := 0; p < k; p++ {
			brow := bd[p*n : (p+1)*n]
			for i, av := range ad[p*m : (p+1)*m] {
				if av != 0 {
					axpy(av, brow, dd[i*n:(i+1)*n])
				}
			}
		}
	case !transA:
		// Column j of op(b) is stored row j of b: one dot per output,
		// four outputs at a time so their add chains overlap.
		for i := 0; i < m; i++ {
			arow, drow := ad[i*k:(i+1)*k], dd[i*n:(i+1)*n]
			j := 0
			for ; j+4 <= n; j += 4 {
				b0, b1, b2, b3 := bd[j*k:(j+1)*k], bd[(j+1)*k:(j+2)*k], bd[(j+2)*k:(j+3)*k], bd[(j+3)*k:(j+4)*k]
				s0, s1, s2, s3 := drow[j], drow[j+1], drow[j+2], drow[j+3]
				for p, av := range arow {
					if av != 0 {
						s0 += float32(av * b0[p])
						s1 += float32(av * b1[p])
						s2 += float32(av * b2[p])
						s3 += float32(av * b3[p])
					}
				}
				drow[j], drow[j+1], drow[j+2], drow[j+3] = s0, s1, s2, s3
			}
			for ; j < n; j++ {
				drow[j] = dotSkip(drow[j], arow, bd[j*k:(j+1)*k])
			}
		}
	default:
		for i := 0; i < m; i++ {
			drow := dd[i*n : (i+1)*n]
			for j := range drow {
				s := drow[j]
				for p, bv := range bd[j*k : (j+1)*k] {
					if av := ad[p*m+i]; av != 0 {
						s += float32(av * bv)
					}
				}
				drow[j] = s
			}
		}
	}
}

// dotSkip returns s + Σ a[p]·b[p] summed in increasing p, each product
// rounded before its add, with the terms of zero a[p] skipped: one
// output element of GemmAcc.
func dotSkip(s float32, a, b Vec) float32 {
	b = b[:len(a)]
	for p, av := range a {
		if av != 0 {
			s += float32(av * b[p])
		}
	}
	return s
}
