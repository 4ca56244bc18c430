// Package ad implements a small reverse-mode automatic-differentiation
// engine over float32 matrices. It is the training substrate standing in
// for the paper's TensorFlow/XDL stack: every model in this reproduction
// (Zoomer and all baselines) builds its forward pass as a tape of ad
// operations and obtains exact gradients with Backward.
//
// The design is a dynamic tape ("define-by-run"): each operation appends a
// node holding its output value, an op code and its operands. Backward
// walks the tape in reverse and dispatches on the op code to propagate
// the output gradient to the operands. Gradients accumulate, so shared
// subexpressions and parameter reuse work naturally.
//
// A tape owns an arena: nodes, value and gradient matrices and each op's
// side buffers are carved out of chunks the tape keeps. A training loop
// holds one tape and calls Reset at the start of every step, so the
// steady-state step allocates almost nothing; Reset invalidates every
// Node, Val and Grad recorded before it. NewTape is cheap and grows its
// arena lazily, so a throwaway tape per forward pass stays fine where
// allocation does not matter.
//
// Parameters live outside the tape (see package nn); they join a forward
// pass via Tape.Watch, which wires a persistent gradient buffer into the
// tape so that optimizers can read accumulated gradients after Backward.
// Matrices passed to Watch and Const stay the caller's: the arena never
// takes them over.
package ad

import (
	"fmt"
	"math"

	"zoomer/internal/tensor"
)

// op selects how Backward propagates a node's gradient to its operands.
type op uint8

const (
	opLeaf op = iota // Const, Watch: nothing to propagate
	opAdd
	opSub
	opMul
	opDiv
	opScale
	opMatMul
	opAddBias
	opConcatCols
	opConcatRows
	opSliceRows
	opSoftmaxRows
	opSigmoid
	opTanh
	opReLU
	opLeakyReLU
	opSqrt
	opSumAll
	opMeanRows
	opBCE
	opFocalBCE
	opTranspose
	opScaleBy
	opEmbed
	opConcatMatMul
	opCustom
)

// Node is one value in a computation graph: an output matrix plus the
// operands and op code Backward needs to propagate gradients to its
// inputs. Nodes are created only through Tape methods and live until the
// tape's next Reset.
type Node struct {
	// Val is the forward value. It must not be mutated after creation.
	Val *tensor.Matrix
	// Grad is dL/dVal, allocated lazily during Backward (or supplied by
	// Watch for parameter nodes).
	Grad *tensor.Matrix

	tape      *Tape
	a, b      *Node
	needsGrad bool
	op        op
	alpha     float32 // Scale/LeakyReLU factor, MeanRows' 1/rows, ScaleBy's scalar
	// aux and naux locate the op's side data in the tape: SliceRows' first
	// row (aux), Concat and ConcatMatMul operands (refs), BCE targets and
	// FocalBCE per-logit gradients (wide), Embed parts (parts) or a
	// Custom closure (customs).
	aux, naux int32

	// val and grad back Val and Grad when the arena owns them.
	val, grad tensor.Matrix
}

// Rows returns the row count of the node's value.
func (n *Node) Rows() int { return n.Val.Rows }

// Cols returns the column count of the node's value.
func (n *Node) Cols() int { return n.Val.Cols }

// Scalar returns the single element of a 1x1 node. It panics otherwise.
func (n *Node) Scalar() float32 {
	if n.Val.Rows != 1 || n.Val.Cols != 1 {
		panic(fmt.Sprintf("ad: Scalar on %dx%d node", n.Val.Rows, n.Val.Cols))
	}
	return n.Val.Data[0]
}

func (n *Node) ensureGrad() *tensor.Matrix {
	if n.Grad == nil {
		n.grad = tensor.Matrix{Rows: n.Val.Rows, Cols: n.Val.Cols, Data: n.tape.floats.alloc(len(n.Val.Data))}
		n.Grad = &n.grad
	}
	return n.Grad
}

// GradSink receives the gradients of an Embed node's rows during
// Backward: grad is dL/d(table row id), and is only valid during the
// call. Sparse embedding tables implement it to scatter gradients into
// their own storage.
type GradSink interface {
	AccumulateRow(id int32, grad tensor.Vec)
}

// Rows selects rows of an embedding table for Tape.Embed: the rows IDs
// of Table, one node row each, or with Mean set their mean as a single
// node row. Backward hands each selected table row's gradient to Sink,
// unless Sink is nil.
type Rows struct {
	Table *tensor.Matrix
	IDs   []int32
	Sink  GradSink
	Mean  bool
}

// Tape records operations for reverse-mode differentiation, one
// forward/backward cycle at a time. A training loop keeps one tape and
// calls Reset before every step: Reset invalidates every Node, Val and
// Grad recorded before it, and keeps the arena, which grows to the
// largest cycle seen, for the next cycle. Tapes are not safe for
// concurrent use.
type Tape struct {
	nodes  slab[Node]    // recorded nodes, in creation order
	floats slab[float32] // value and gradient matrices

	// Side buffers, which nodes address by offset (see Node.aux).
	refs    []*Node
	wide    []float64
	ids     []int32
	parts   []embedPart
	customs []func(out *Node)
	n       int
}

// embedPart is one Rows part of an Embed node: its sink, the offset and
// count of its ids in Tape.ids, and whether the part is a mean row.
type embedPart struct {
	sink   GradSink
	ids, n int32
	mean   bool
}

// NewTape returns an empty tape. It allocates no arena until the first
// operation.
func NewTape() *Tape { return &Tape{} }

// Reset clears the tape for the next forward/backward cycle. Every Node
// recorded before it, and every Val and Grad matrix the tape handed out,
// is invalid afterwards: their memory is reused. Parameter gradients
// supplied through Watch are the caller's and are not touched.
func (t *Tape) Reset() {
	t.nodes.reset()
	t.floats.reset()
	clear(t.customs)
	t.refs, t.wide, t.ids, t.parts, t.customs = t.refs[:0], t.wide[:0], t.ids[:0], t.parts[:0], t.customs[:0]
	t.n = 0
}

// Len reports the number of recorded nodes, useful for memory accounting
// in the efficiency experiments.
func (t *Tape) Len() int { return t.n }

// record appends a zeroed node with the given op to the tape.
func (t *Tape) record(o op, needsGrad bool) *Node {
	n := &t.nodes.alloc(1)[0]
	n.tape, n.op, n.needsGrad = t, o, needsGrad
	t.n++
	return n
}

// value gives n a zeroed rows x cols value matrix from the arena.
func (t *Tape) value(n *Node, rows, cols int) *tensor.Matrix {
	n.val = tensor.Matrix{Rows: rows, Cols: cols, Data: t.floats.alloc(rows * cols)}
	n.Val = &n.val
	return n.Val
}

// Const introduces a matrix that does not require gradients.
func (t *Tape) Const(m *tensor.Matrix) *Node {
	n := t.record(opLeaf, false)
	n.Val = m
	return n
}

// ConstVec introduces a 1xN constant row vector view of v.
func (t *Tape) ConstVec(v tensor.Vec) *Node {
	n := t.record(opLeaf, false)
	n.val = tensor.Matrix{Rows: 1, Cols: len(v), Data: v}
	n.Val = &n.val
	return n
}

// Watch introduces a parameter: val is the parameter storage and grad the
// persistent gradient buffer gradients accumulate into. Both must share a
// shape. Optimizers own zeroing grad between steps.
func (t *Tape) Watch(val, grad *tensor.Matrix) *Node {
	if val.Rows != grad.Rows || val.Cols != grad.Cols {
		panic("ad: Watch value/grad shape mismatch")
	}
	n := t.record(opLeaf, true)
	n.Val, n.Grad = val, grad
	return n
}

// Backward runs reverse-mode accumulation from root, which must be a 1x1
// scalar node (a loss). It seeds dL/droot = 1 and walks the tape in
// reverse creation order, which is a valid topological order for a
// define-by-run graph.
func (t *Tape) Backward(root *Node) {
	if root.tape != t {
		panic("ad: Backward on node from another tape")
	}
	if root.Val.Rows != 1 || root.Val.Cols != 1 {
		panic(fmt.Sprintf("ad: Backward root must be scalar, got %dx%d", root.Val.Rows, root.Val.Cols))
	}
	root.ensureGrad().Data[0] = 1
	for c := len(t.nodes.chunks) - 1; c >= 0; c-- {
		ch := &t.nodes.chunks[c]
		for i := ch.fill - 1; i >= 0; i-- {
			n := &ch.data[i]
			if n.op != opLeaf && n.Grad != nil && n.needsGrad {
				t.backward(n)
			}
		}
	}
}

// backward propagates out.Grad into out's operands according to out.op.
func (t *Tape) backward(out *Node) {
	a, b := out.a, out.b
	switch out.op {
	case opAdd:
		if a.needsGrad {
			g := a.ensureGrad()
			for i := range g.Data {
				g.Data[i] += out.Grad.Data[i]
			}
		}
		if b.needsGrad {
			g := b.ensureGrad()
			for i := range g.Data {
				g.Data[i] += out.Grad.Data[i]
			}
		}
	case opSub:
		if a.needsGrad {
			g := a.ensureGrad()
			for i := range g.Data {
				g.Data[i] += out.Grad.Data[i]
			}
		}
		if b.needsGrad {
			g := b.ensureGrad()
			for i := range g.Data {
				g.Data[i] -= out.Grad.Data[i]
			}
		}
	case opMul:
		if a.needsGrad {
			g := a.ensureGrad()
			for i := range g.Data {
				g.Data[i] += out.Grad.Data[i] * b.Val.Data[i]
			}
		}
		if b.needsGrad {
			g := b.ensureGrad()
			for i := range g.Data {
				g.Data[i] += out.Grad.Data[i] * a.Val.Data[i]
			}
		}
	case opDiv:
		// The guarded denominators are recomputed from b's immutable
		// value rather than stored.
		if a.needsGrad {
			g := a.ensureGrad()
			for i := range g.Data {
				g.Data[i] += out.Grad.Data[i] / guardDenom(b.Val.Data[i])
			}
		}
		if b.needsGrad {
			g := b.ensureGrad()
			for i := range g.Data {
				g.Data[i] -= out.Grad.Data[i] * out.Val.Data[i] / guardDenom(b.Val.Data[i])
			}
		}
	case opScale:
		if a.needsGrad {
			g := a.ensureGrad()
			for i := range g.Data {
				g.Data[i] += out.alpha * out.Grad.Data[i]
			}
		}
	case opMatMul:
		if a.needsGrad {
			tensor.GemmAcc(a.ensureGrad(), out.Grad, b.Val, false, true)
		}
		if b.needsGrad {
			tensor.GemmAcc(b.ensureGrad(), a.Val, out.Grad, true, false)
		}
	case opAddBias:
		if a.needsGrad {
			g := a.ensureGrad()
			for i := range g.Data {
				g.Data[i] += out.Grad.Data[i]
			}
		}
		if b.needsGrad {
			g := b.ensureGrad()
			for i := 0; i < out.Rows(); i++ {
				row := out.Grad.Row(i)
				for j := range row {
					g.Data[j] += row[j]
				}
			}
		}
	case opConcatCols:
		rows := out.Rows()
		off := 0
		for _, n := range t.refs[out.aux : out.aux+out.naux] {
			if n.needsGrad {
				g := n.ensureGrad()
				for i := 0; i < rows; i++ {
					grow := out.Grad.Row(i)[off : off+n.Cols()]
					dst := g.Row(i)
					for j := range dst {
						dst[j] += grow[j]
					}
				}
			}
			off += n.Cols()
		}
	case opConcatRows:
		cols := out.Cols()
		off := 0
		for _, n := range t.refs[out.aux : out.aux+out.naux] {
			if n.needsGrad {
				g := n.ensureGrad()
				src := out.Grad.Data[off*cols : (off+n.Rows())*cols]
				for i := range g.Data {
					g.Data[i] += src[i]
				}
			}
			off += n.Rows()
		}
	case opSliceRows:
		if a.needsGrad {
			cols := out.Cols()
			g := a.ensureGrad()
			lo := int(out.aux)
			dst := g.Data[lo*cols : (lo+out.Rows())*cols]
			for i := range out.Grad.Data {
				dst[i] += out.Grad.Data[i]
			}
		}
	case opSoftmaxRows:
		if !a.needsGrad {
			return
		}
		g := a.ensureGrad()
		for i := 0; i < a.Rows(); i++ {
			y := out.Val.Row(i)
			dy := out.Grad.Row(i)
			var dot float64
			for j := range y {
				dot += float64(y[j]) * float64(dy[j])
			}
			dst := g.Row(i)
			for j := range y {
				dst[j] += y[j] * (dy[j] - float32(dot))
			}
		}
	case opSigmoid, opTanh, opReLU, opLeakyReLU, opSqrt:
		if !a.needsGrad {
			return
		}
		g := a.ensureGrad()
		for i := range g.Data {
			g.Data[i] += out.Grad.Data[i] * unaryDeriv(out, a.Val.Data[i], out.Val.Data[i])
		}
	case opSumAll:
		if !a.needsGrad {
			return
		}
		g := a.ensureGrad()
		d := out.Grad.Data[0]
		for i := range g.Data {
			g.Data[i] += d
		}
	case opMeanRows:
		if !a.needsGrad {
			return
		}
		g := a.ensureGrad()
		for i := 0; i < a.Rows(); i++ {
			dst := g.Row(i)
			for j := range dst {
				dst[j] += out.Grad.Data[j] * out.alpha
			}
		}
	case opBCE:
		if !a.needsGrad {
			return
		}
		g := a.ensureGrad()
		targets := t.wide[out.aux : out.aux+out.naux]
		scale := out.Grad.Data[0] / float32(len(targets))
		for i, x := range a.Val.Data {
			g.Data[i] += scale * (tensor.Sigmoid(x) - float32(targets[i]))
		}
	case opFocalBCE:
		if !a.needsGrad {
			return
		}
		g := a.ensureGrad()
		grads := t.wide[out.aux : out.aux+out.naux]
		scale := float64(out.Grad.Data[0]) / float64(len(grads))
		for i := range grads {
			g.Data[i] += float32(scale * grads[i])
		}
	case opTranspose:
		if !a.needsGrad {
			return
		}
		g := a.ensureGrad()
		for i := 0; i < out.Grad.Rows; i++ {
			for j := 0; j < out.Grad.Cols; j++ {
				g.Data[j*g.Cols+i] += out.Grad.Data[i*out.Grad.Cols+j]
			}
		}
	case opScaleBy:
		// a is the 1x1 scalar, b the scaled matrix.
		if b.needsGrad {
			g := b.ensureGrad()
			for i := range g.Data {
				g.Data[i] += out.alpha * out.Grad.Data[i]
			}
		}
		if a.needsGrad {
			var acc float64
			for i, v := range b.Val.Data {
				acc += float64(v) * float64(out.Grad.Data[i])
			}
			a.ensureGrad().Data[0] += float32(acc)
		}
	case opEmbed:
		// Parts scatter last to first, each part's ids in order: the
		// order in which per-part gather nodes, a mean over rows and a
		// row concatenation would run backward. A mean row's gradient is
		// scaled once into a zeroed row, as that mean's backward would.
		row := out.Rows()
		parts := t.parts[out.aux : out.aux+out.naux]
		for i := len(parts) - 1; i >= 0; i-- {
			p := parts[i]
			ids := t.ids[p.ids : p.ids+p.n]
			if !p.mean {
				row -= len(ids)
				if p.sink != nil {
					for k, id := range ids {
						p.sink.AccumulateRow(id, out.Grad.Row(row+k))
					}
				}
				continue
			}
			row--
			if p.sink == nil {
				continue
			}
			alpha := 1 / float32(len(ids))
			g := t.floats.alloc(out.Cols())
			for j, v := range out.Grad.Row(row) {
				g[j] += v * alpha
			}
			for _, id := range ids {
				p.sink.AccumulateRow(id, g)
			}
		}
	case opConcatMatMul:
		// As MatMul(ConcatCols(parts...), w) runs backward: w's gradient
		// from the concatenation's nonzero entries, then each part's
		// share of the concatenation's gradient, rounded as a product
		// before it is added.
		w, g := out.b, out.Grad.Data[0]
		off := 0
		for _, n := range t.refs[out.aux : out.aux+out.naux] {
			wv := w.Val.Data[off : off+n.Cols()]
			if w.needsGrad {
				wg := w.ensureGrad().Data[off : off+n.Cols()]
				for k, v := range n.Val.Data {
					if v != 0 {
						wg[k] += float32(v * g)
					}
				}
			}
			if n.needsGrad {
				ng := n.ensureGrad().Data
				if g != 0 {
					for k, v := range wv {
						ng[k] += float32(g * v)
					}
				}
			}
			off += n.Cols()
		}
	case opCustom:
		t.customs[out.aux](out)
	default:
		panic(fmt.Sprintf("ad: backward of unknown op %d", out.op))
	}
}

func anyNeedsGrad(nodes ...*Node) bool {
	for _, n := range nodes {
		if n.needsGrad {
			return true
		}
	}
	return false
}

func sameShape(a, b *Node) {
	if a.Val.Rows != b.Val.Rows || a.Val.Cols != b.Val.Cols {
		panic(fmt.Sprintf("ad: shape mismatch %dx%d vs %dx%d", a.Val.Rows, a.Val.Cols, b.Val.Rows, b.Val.Cols))
	}
}

// binary records an element-wise op over same-shape a and b and returns
// the node with its zeroed value matrix.
func (t *Tape) binary(o op, a, b *Node) (*Node, *tensor.Matrix) {
	sameShape(a, b)
	out := t.record(o, anyNeedsGrad(a, b))
	out.a, out.b = a, b
	return out, t.value(out, a.Rows(), a.Cols())
}

// Add returns a + b (same shape).
func (t *Tape) Add(a, b *Node) *Node {
	out, val := t.binary(opAdd, a, b)
	for i := range val.Data {
		val.Data[i] = a.Val.Data[i] + b.Val.Data[i]
	}
	return out
}

// Sub returns a - b (same shape).
func (t *Tape) Sub(a, b *Node) *Node {
	out, val := t.binary(opSub, a, b)
	for i := range val.Data {
		val.Data[i] = a.Val.Data[i] - b.Val.Data[i]
	}
	return out
}

// Mul returns the element-wise product a * b (same shape).
func (t *Tape) Mul(a, b *Node) *Node {
	out, val := t.binary(opMul, a, b)
	for i := range val.Data {
		val.Data[i] = a.Val.Data[i] * b.Val.Data[i]
	}
	return out
}

// Div returns the element-wise quotient a / (b + eps·sign(b)) with a small
// epsilon guard against division by near-zero.
const divEps = 1e-8

func guardDenom(v float32) float32 {
	if v >= 0 && v < divEps {
		return divEps
	}
	if v < 0 && v > -divEps {
		return -divEps
	}
	return v
}

// Div returns element-wise a / b with epsilon-guarded denominators.
func (t *Tape) Div(a, b *Node) *Node {
	out, val := t.binary(opDiv, a, b)
	for i := range val.Data {
		val.Data[i] = a.Val.Data[i] / guardDenom(b.Val.Data[i])
	}
	return out
}

// unary records a one-operand op over a with an a-shaped value matrix.
func (t *Tape) unary(o op, a *Node) (*Node, *tensor.Matrix) {
	out := t.record(o, a.needsGrad)
	out.a = a
	return out, t.value(out, a.Rows(), a.Cols())
}

// Scale returns alpha * a.
func (t *Tape) Scale(alpha float32, a *Node) *Node {
	out, val := t.unary(opScale, a)
	out.alpha = alpha
	for i := range val.Data {
		val.Data[i] = alpha * a.Val.Data[i]
	}
	return out
}

// MatMul returns a · b.
func (t *Tape) MatMul(a, b *Node) *Node {
	if a.Cols() != b.Rows() {
		panic(fmt.Sprintf("ad: MatMul shape mismatch (%dx%d)·(%dx%d)", a.Rows(), a.Cols(), b.Rows(), b.Cols()))
	}
	out := t.record(opMatMul, anyNeedsGrad(a, b))
	out.a, out.b = a, b
	tensor.GemmAcc(t.value(out, a.Rows(), b.Cols()), a.Val, b.Val, false, false)
	return out
}

// AddBias returns m + bias broadcast over rows; bias must be 1 x m.Cols.
func (t *Tape) AddBias(m, bias *Node) *Node {
	if bias.Rows() != 1 || bias.Cols() != m.Cols() {
		panic(fmt.Sprintf("ad: AddBias bias shape %dx%d for matrix %dx%d", bias.Rows(), bias.Cols(), m.Rows(), m.Cols()))
	}
	out := t.record(opAddBias, anyNeedsGrad(m, bias))
	out.a, out.b = m, bias
	val := t.value(out, m.Rows(), m.Cols())
	for i := 0; i < m.Rows(); i++ {
		row := m.Val.Row(i)
		orow := val.Row(i)
		for j := range orow {
			orow[j] = row[j] + bias.Val.Data[j]
		}
	}
	return out
}

// concat records a ConcatCols/ConcatRows node, copying the operand list
// into the arena so the caller's slice is not retained.
func (t *Tape) concat(o op, nodes []*Node) *Node {
	out := t.record(o, anyNeedsGrad(nodes...))
	out.aux, out.naux = int32(len(t.refs)), int32(len(nodes))
	t.refs = append(t.refs, nodes...)
	return out
}

// ConcatCols concatenates nodes horizontally; all must share a row count.
func (t *Tape) ConcatCols(nodes ...*Node) *Node {
	if len(nodes) == 0 {
		panic("ad: ConcatCols of nothing")
	}
	rows := nodes[0].Rows()
	total := 0
	for _, n := range nodes {
		if n.Rows() != rows {
			panic("ad: ConcatCols row mismatch")
		}
		total += n.Cols()
	}
	out := t.concat(opConcatCols, nodes)
	val := t.value(out, rows, total)
	off := 0
	for _, n := range nodes {
		for i := 0; i < rows; i++ {
			copy(val.Row(i)[off:off+n.Cols()], n.Val.Row(i))
		}
		off += n.Cols()
	}
	return out
}

// ConcatRows concatenates nodes vertically; all must share a column count.
func (t *Tape) ConcatRows(nodes ...*Node) *Node {
	if len(nodes) == 0 {
		panic("ad: ConcatRows of nothing")
	}
	cols := nodes[0].Cols()
	total := 0
	for _, n := range nodes {
		if n.Cols() != cols {
			panic("ad: ConcatRows column mismatch")
		}
		total += n.Rows()
	}
	out := t.concat(opConcatRows, nodes)
	val := t.value(out, total, cols)
	off := 0
	for _, n := range nodes {
		copy(val.Data[off*cols:], n.Val.Data)
		off += n.Rows()
	}
	return out
}

// ConcatMatMul returns the 1x1 node [parts[0] ‖ parts[1] ‖ …]·w for 1 x
// n_i row parts and a (Σ n_i) x 1 column w, without materializing the
// concatenation: the edge-attention score of a ROI child. Its value and
// gradients are bit-identical to MatMul(ConcatCols(parts...), w): the sum
// runs over the parts in order, skipping their zero entries, as GemmAcc
// does.
func (t *Tape) ConcatMatMul(w *Node, parts ...*Node) *Node {
	total := 0
	for _, n := range parts {
		if n.Rows() != 1 {
			panic(fmt.Sprintf("ad: ConcatMatMul part of %d rows", n.Rows()))
		}
		total += n.Cols()
	}
	if w.Rows() != total || w.Cols() != 1 {
		panic(fmt.Sprintf("ad: ConcatMatMul (1x%d)·(%dx%d)", total, w.Rows(), w.Cols()))
	}
	out := t.concat(opConcatMatMul, parts)
	out.b, out.needsGrad = w, out.needsGrad || w.needsGrad
	var s float32
	off := 0
	for _, n := range parts {
		wv := w.Val.Data[off : off+n.Cols()]
		for k, v := range n.Val.Data {
			if v != 0 {
				s += float32(v * wv[k])
			}
		}
		off += n.Cols()
	}
	t.value(out, 1, 1).Data[0] = s
	return out
}

// SliceRows returns the view [lo, hi) of m's rows as a new node.
func (t *Tape) SliceRows(m *Node, lo, hi int) *Node {
	if lo < 0 || hi > m.Rows() || lo > hi {
		panic(fmt.Sprintf("ad: SliceRows [%d,%d) of %d rows", lo, hi, m.Rows()))
	}
	cols := m.Cols()
	out := t.record(opSliceRows, m.needsGrad)
	out.a, out.aux = m, int32(lo)
	copy(t.value(out, hi-lo, cols).Data, m.Val.Data[lo*cols:hi*cols])
	return out
}

// SoftmaxRows applies softmax independently to each row.
func (t *Tape) SoftmaxRows(m *Node) *Node {
	out, val := t.unary(opSoftmaxRows, m)
	for i := 0; i < m.Rows(); i++ {
		tensor.Softmax(m.Val.Row(i), val.Row(i))
	}
	return out
}

// unaryDeriv is d(out)/d(x) of out's element-wise activation at input x
// with output y.
func unaryDeriv(out *Node, x, y float32) float32 {
	switch out.op {
	case opSigmoid:
		return y * (1 - y)
	case opTanh:
		return 1 - y*y
	case opReLU:
		if x > 0 {
			return 1
		}
		return 0
	case opLeakyReLU:
		if x > 0 {
			return 1
		}
		return out.alpha
	default: // opSqrt
		return 1 / (2 * y)
	}
}

// Sigmoid applies the logistic function element-wise.
func (t *Tape) Sigmoid(a *Node) *Node {
	out, val := t.unary(opSigmoid, a)
	for i, x := range a.Val.Data {
		val.Data[i] = tensor.Sigmoid(x)
	}
	return out
}

// Tanh applies tanh element-wise.
func (t *Tape) Tanh(a *Node) *Node {
	out, val := t.unary(opTanh, a)
	for i, x := range a.Val.Data {
		val.Data[i] = float32(math.Tanh(float64(x)))
	}
	return out
}

// ReLU applies max(0, x) element-wise.
func (t *Tape) ReLU(a *Node) *Node {
	out, val := t.unary(opReLU, a)
	for i, x := range a.Val.Data {
		if x > 0 {
			val.Data[i] = x
		}
	}
	return out
}

// LeakyReLU applies x>0 ? x : alpha*x element-wise (the GAT/paper
// attention nonlinearity, conventionally alpha=0.2).
func (t *Tape) LeakyReLU(alpha float32, a *Node) *Node {
	out, val := t.unary(opLeakyReLU, a)
	out.alpha = alpha
	for i, x := range a.Val.Data {
		if x > 0 {
			val.Data[i] = x
		} else {
			val.Data[i] = alpha * x
		}
	}
	return out
}

// Sqrt applies sqrt(max(x, 0) + eps) element-wise; the epsilon keeps the
// derivative finite at zero, which matters for norm computations.
func (t *Tape) Sqrt(a *Node) *Node {
	const eps = 1e-12
	out, val := t.unary(opSqrt, a)
	for i, x := range a.Val.Data {
		if x < 0 {
			x = 0
		}
		val.Data[i] = float32(math.Sqrt(float64(x) + eps))
	}
	return out
}

// scalar records a 1x1 reduction of a holding v.
func (t *Tape) scalar(o op, a *Node, v float32) *Node {
	out := t.record(o, a.needsGrad)
	out.a = a
	t.value(out, 1, 1).Data[0] = v
	return out
}

// SumAll reduces to a 1x1 scalar node holding the sum of all elements.
func (t *Tape) SumAll(a *Node) *Node {
	var s float64
	for _, v := range a.Val.Data {
		s += float64(v)
	}
	return t.scalar(opSumAll, a, float32(s))
}

// MeanAll reduces to a 1x1 scalar node holding the mean of all elements.
func (t *Tape) MeanAll(a *Node) *Node {
	n := len(a.Val.Data)
	if n == 0 {
		panic("ad: MeanAll of empty node")
	}
	return t.Scale(1/float32(n), t.SumAll(a))
}

// MeanRows returns the 1 x Cols mean over rows (mean pooling).
func (t *Tape) MeanRows(a *Node) *Node {
	if a.Rows() == 0 {
		panic("ad: MeanRows of empty node")
	}
	out := t.record(opMeanRows, a.needsGrad)
	out.a = a
	val := t.value(out, 1, a.Cols())
	for i := 0; i < a.Rows(); i++ {
		row := a.Val.Row(i)
		for j, v := range row {
			val.Data[j] += v
		}
	}
	out.alpha = 1 / float32(a.Rows())
	for j := range val.Data {
		val.Data[j] *= out.alpha
	}
	return out
}

// Dot returns the scalar inner product of two 1xN (or Nx1) nodes.
func (t *Tape) Dot(a, b *Node) *Node {
	return t.SumAll(t.Mul(a, b))
}

// Norm returns the scalar Euclidean norm of a node's elements.
func (t *Tape) Norm(a *Node) *Node {
	return t.Sqrt(t.SumAll(t.Mul(a, a)))
}

// CosineSim returns the scalar cosine similarity of two same-shape nodes,
// the twin-tower scoring function (score = cos(uq, i)) and the
// semantic-combination weight of eq. (10).
func (t *Tape) CosineSim(a, b *Node) *Node {
	sameShape(a, b)
	return t.Div(t.Dot(a, b), t.Mul(t.Norm(a), t.Norm(b)))
}

// Embed returns the embedding-lookup node that stacks its parts' rows
// in order: each Rows part adds its table rows, or with Mean set their
// mean as one row, so a node's whole feature matrix is built in place in
// one value. All tables must share a column count. The tape copies the
// rows and the ids, so no argument is retained beyond the sinks. The
// node needs gradients when any part has a sink; Backward hands every
// selected table row its gradient through that part's sink, a mean's
// ids each the mean row's gradient over their count.
func (t *Tape) Embed(parts ...Rows) *Node {
	if len(parts) == 0 {
		panic("ad: Embed of nothing")
	}
	cols, rows, needsGrad := parts[0].Table.Cols, 0, false
	for _, p := range parts {
		switch {
		case p.Table.Cols != cols:
			panic(fmt.Sprintf("ad: Embed tables of %d and %d columns", cols, p.Table.Cols))
		case !p.Mean:
			rows += len(p.IDs)
		case len(p.IDs) == 0:
			panic("ad: Embed mean of no rows")
		default:
			rows++
		}
		needsGrad = needsGrad || p.Sink != nil
	}
	out := t.record(opEmbed, needsGrad)
	out.aux, out.naux = int32(len(t.parts)), int32(len(parts))
	val := t.value(out, rows, cols)
	row := 0
	for _, p := range parts {
		t.parts = append(t.parts, embedPart{sink: p.Sink, ids: int32(len(t.ids)), n: int32(len(p.IDs)), mean: p.Mean})
		t.ids = append(t.ids, p.IDs...)
		if !p.Mean {
			for _, id := range p.IDs {
				copy(val.Row(row), p.Table.Row(int(id)))
				row++
			}
			continue
		}
		// Summed in order and then scaled, as a mean over rows is.
		dst := val.Row(row)
		for _, id := range p.IDs {
			for j, v := range p.Table.Row(int(id)) {
				dst[j] += v
			}
		}
		alpha := 1 / float32(len(p.IDs))
		for j := range dst {
			dst[j] *= alpha
		}
		row++
	}
	return out
}

// Custom introduces a node with a caller-provided value and backward
// closure, for operations with bespoke gradient handling. The closure
// receives the output node and must accumulate into the inputs it closed
// over. Unlike the built-in ops it costs the caller a closure per node.
func (t *Tape) Custom(val *tensor.Matrix, needsGrad bool, back func(out *Node)) *Node {
	out := t.record(opLeaf, needsGrad)
	out.Val = val
	if back != nil {
		out.op, out.aux = opCustom, int32(len(t.customs))
		t.customs = append(t.customs, back)
	}
	return out
}

// BCEWithLogits returns the mean binary cross-entropy between logits (any
// shape) and targets (same element count, values in [0,1]), computed in
// the numerically stable log-sum-exp form. The gradient with respect to
// each logit is (sigmoid(x) - z) / n.
func (t *Tape) BCEWithLogits(logits *Node, targets []float32) *Node {
	n := len(logits.Val.Data)
	if n != len(targets) {
		panic(fmt.Sprintf("ad: BCEWithLogits %d logits vs %d targets", n, len(targets)))
	}
	if n == 0 {
		panic("ad: BCEWithLogits with no samples")
	}
	var loss float64
	for i, x64 := range logits.Val.Data {
		x := float64(x64)
		z := float64(targets[i])
		// max(x,0) - x*z + log(1+exp(-|x|))
		loss += math.Max(x, 0) - x*z + math.Log1p(math.Exp(-math.Abs(x)))
	}
	out := t.scalar(opBCE, logits, float32(loss/float64(n)))
	out.aux, out.naux = int32(len(t.wide)), int32(n)
	for _, z := range targets {
		t.wide = append(t.wide, float64(z))
	}
	return out
}

// FocalBCEWithLogits returns the mean focal binary cross-entropy
// (Lin et al.) with focusing parameter gamma, the loss the paper trains
// Zoomer with ("focal cross-entropy loss ... focal weight to 2"):
//
//	FL = -z·(1-p)^γ·log p - (1-z)·p^γ·log(1-p),  p = sigmoid(x)
//
// Gradients are computed analytically in float64 for stability.
func (t *Tape) FocalBCEWithLogits(logits *Node, targets []float32, gamma float64) *Node {
	n := len(logits.Val.Data)
	if n != len(targets) {
		panic(fmt.Sprintf("ad: FocalBCEWithLogits %d logits vs %d targets", n, len(targets)))
	}
	if n == 0 {
		panic("ad: FocalBCEWithLogits with no samples")
	}
	const eps = 1e-9
	var loss float64
	off := len(t.wide)
	t.wide = append(t.wide, make([]float64, n)...)
	grads := t.wide[off:]
	for i, x64 := range logits.Val.Data {
		x := float64(x64)
		z := float64(targets[i])
		p := 1 / (1 + math.Exp(-x))
		p = math.Min(math.Max(p, eps), 1-eps)
		q := 1 - p
		logP, logQ := math.Log(p), math.Log(q)
		loss += -z*math.Pow(q, gamma)*logP - (1-z)*math.Pow(p, gamma)*logQ
		// d/dp of the positive term: -z [ -γ(1-p)^{γ-1} log p + (1-p)^γ / p ]
		dpos := -z * (-gamma*math.Pow(q, gamma-1)*logP + math.Pow(q, gamma)/p)
		// d/dp of the negative term: -(1-z) [ γ p^{γ-1} log(1-p) - p^γ/(1-p) ]
		dneg := -(1 - z) * (gamma*math.Pow(p, gamma-1)*logQ - math.Pow(p, gamma)/q)
		grads[i] = (dpos + dneg) * p * q // chain through dp/dx = p(1-p)
	}
	out := t.scalar(opFocalBCE, logits, float32(loss/float64(n)))
	out.aux, out.naux = int32(off), int32(n)
	return out
}

// Transpose returns aᵀ.
func (t *Tape) Transpose(a *Node) *Node {
	out := t.record(opTranspose, a.needsGrad)
	out.a = a
	val := t.value(out, a.Cols(), a.Rows())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			val.Data[j*val.Cols+i] = a.Val.Data[i*a.Cols()+j]
		}
	}
	return out
}

// ScaleBy multiplies every element of m by a 1x1 scalar node: the
// semantic-combination step (eq. 11) scales per-type aggregates by their
// learned/cosine weights.
func (t *Tape) ScaleBy(scalar, m *Node) *Node {
	if scalar.Val.Rows != 1 || scalar.Val.Cols != 1 {
		panic("ad: ScaleBy needs a 1x1 scalar node")
	}
	s := scalar.Val.Data[0]
	out := t.record(opScaleBy, anyNeedsGrad(scalar, m))
	out.a, out.b, out.alpha = scalar, m, s
	val := t.value(out, m.Rows(), m.Cols())
	for i, v := range m.Val.Data {
		val.Data[i] = s * v
	}
	return out
}
