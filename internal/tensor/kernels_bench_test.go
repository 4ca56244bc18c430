package tensor

import (
	"fmt"
	"testing"

	"zoomer/internal/rng"
)

// Kernel-era benchmarks: the dispatched public kernels at the dims the
// serving stack actually runs (32/64 embeddings, 256 for headroom), and
// the generic references beside them so one run shows the seam's win.
// bench.sh records BenchmarkDot*/BenchmarkMatVecT*/BenchmarkAxpy* in
// BENCH_hotpath.json next to the active `simd` dispatch.

func benchVecs(n int) (Vec, Vec) {
	r := rng.New(uint64(n) + 1)
	a, b := make(Vec, n), make(Vec, n)
	for i := range a {
		a[i] = float32(r.NormFloat64())
		b[i] = float32(r.NormFloat64())
	}
	return a, b
}

var sinkF32 float32
var sinkI32 int32

func BenchmarkDot(b *testing.B) {
	for _, n := range []int{32, 64, 256} {
		a, x := benchVecs(n)
		b.Run(fmt.Sprintf("dim%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkF32 = Dot(a, x)
			}
		})
		b.Run(fmt.Sprintf("dim%d-generic", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkF32 = DotGeneric(a, x)
			}
		})
	}
}

func BenchmarkDotSq(b *testing.B) {
	for _, n := range []int{32, 64} {
		a, x := benchVecs(n)
		b.Run(fmt.Sprintf("dim%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkF32, _ = DotSq(a, x)
			}
		})
	}
}

func BenchmarkAxpy(b *testing.B) {
	for _, n := range []int{32, 64, 256} {
		x, y := benchVecs(n)
		b.Run(fmt.Sprintf("dim%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Axpy(0.5, x, y)
			}
		})
	}
}

func BenchmarkDotAxpy(b *testing.B) {
	for _, n := range []int{32, 64} {
		x, w := benchVecs(n)
		y := make(Vec, n)
		b.Run(fmt.Sprintf("dim%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkF32 = DotAxpy(0.5, x, w, y)
			}
		})
	}
}

func BenchmarkMatVecT(b *testing.B) {
	for _, dim := range []int{64, 128} {
		m := NewMatrix(dim, dim)
		x, out := benchVecs(dim)
		r := rng.New(9)
		for i := range m.Data {
			m.Data[i] = float32(r.NormFloat64())
		}
		b.Run(fmt.Sprintf("%dx%d", dim, dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MatVecT(m, x, out)
			}
		})
		b.Run(fmt.Sprintf("%dx%d-generic", dim, dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := range out {
					out[j] = 0
				}
				for row := 0; row < dim; row++ {
					xi := x[row]
					if xi == 0 {
						continue
					}
					AxpyGeneric(xi, m.Data[row*dim:(row+1)*dim], out)
				}
			}
		})
	}
}

func BenchmarkMatVec(b *testing.B) {
	dim := 64
	m := NewMatrix(dim, dim)
	r := rng.New(9)
	for i := range m.Data {
		m.Data[i] = float32(r.NormFloat64())
	}
	x, out := benchVecs(dim)
	b.Run(fmt.Sprintf("%dx%d", dim, dim), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MatVec(m, x, out)
		}
	})
}

func BenchmarkDotI8(b *testing.B) {
	for _, n := range []int{32, 64, 256} {
		r := rng.New(uint64(n))
		a, x := make([]int8, n), make([]int8, n)
		for i := range a {
			a[i] = int8(r.Intn(255) - 127)
			x[i] = int8(r.Intn(255) - 127)
		}
		b.Run(fmt.Sprintf("dim%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkI32 = DotI8(a, x)
			}
		})
	}
}

// gemmShapes are the products of the training step, as m x k x n for
// (m x k)·(k x n): a feature matrix against the focal vector (5x32x1),
// attention weights over stacked neighbor embeddings (1x10x32), the
// edge-attention score over [zf ‖ zj ‖ C] (1x96x1) and a tower layer
// (1x64x32).
var gemmShapes = [][3]int{{5, 32, 1}, {1, 10, 32}, {1, 96, 1}, {1, 64, 32}}

// BenchmarkGemmAcc runs each training-step product the three ways a tape
// MatMul node calls GemmAcc: the forward product, and the backward
// products into the gradients of its left (dA = G·Bᵀ) and right
// (dB = Aᵀ·G) operands.
func BenchmarkGemmAcc(b *testing.B) {
	r := rng.New(11)
	fill := func(rows, cols int) *Matrix {
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = float32(r.NormFloat64())
		}
		return m
	}
	for _, s := range gemmShapes {
		m, k, n := s[0], s[1], s[2]
		A, B, G := fill(m, k), fill(k, n), fill(m, n)
		for _, c := range []struct {
			name           string
			dst, a, b      *Matrix
			transA, transB bool
		}{
			{"fwd", NewMatrix(m, n), A, B, false, false},
			{"dA", NewMatrix(m, k), G, B, false, true},
			{"dB", NewMatrix(k, n), A, G, true, false},
		} {
			b.Run(fmt.Sprintf("%dx%dx%d/%s", m, k, n, c.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					GemmAcc(c.dst, c.a, c.b, c.transA, c.transB)
				}
			})
		}
	}
}
