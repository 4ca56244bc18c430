// Package nn provides the neural-network building blocks used by Zoomer
// and every baseline: dense parameters, linear/MLP layers, sparse
// embedding tables, and SGD/Adam optimizers with sparse updates.
//
// It mirrors the split in the paper's XDL training stack: dense model
// parameters (attention vectors, projection matrices) are small and
// updated densely; embedding tables are huge and updated sparsely — only
// the rows touched by a minibatch carry gradients, and optimizer state for
// a row is allocated the first time that row is updated.
package nn

import (
	"fmt"
	"math"

	"zoomer/internal/ad"
	"zoomer/internal/rng"
	"zoomer/internal/tensor"
)

// Param is a dense trainable parameter with a persistent gradient buffer.
type Param struct {
	Name string
	Val  *tensor.Matrix
	Grad *tensor.Matrix
}

// NewParam returns a zero-initialized parameter of the given shape.
func NewParam(name string, rows, cols int) *Param {
	return &Param{
		Name: name,
		Val:  tensor.NewMatrix(rows, cols),
		Grad: tensor.NewMatrix(rows, cols),
	}
}

// XavierInit fills p with Glorot-uniform values scaled for its shape.
func (p *Param) XavierInit(r *rng.RNG) *Param {
	limit := float32(math.Sqrt(6.0 / float64(p.Val.Rows+p.Val.Cols)))
	for i := range p.Val.Data {
		p.Val.Data[i] = (r.Float32()*2 - 1) * limit
	}
	return p
}

// Node enrolls the parameter in a tape so gradients accumulate into
// p.Grad during Backward.
func (p *Param) Node(t *ad.Tape) *ad.Node { return t.Watch(p.Val, p.Grad) }

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() {
	for i := range p.Grad.Data {
		p.Grad.Data[i] = 0
	}
}

// NumValues returns the number of scalar values in the parameter.
func (p *Param) NumValues() int { return len(p.Val.Data) }

// Linear is a fully connected layer y = x·W + b.
type Linear struct {
	W, B *Param
}

// NewLinear returns a Xavier-initialized linear layer mapping in -> out.
func NewLinear(name string, in, out int, r *rng.RNG) *Linear {
	return &Linear{
		W: NewParam(name+".W", in, out).XavierInit(r),
		B: NewParam(name+".b", 1, out),
	}
}

// Forward applies the layer to a batch (rows are samples).
func (l *Linear) Forward(t *ad.Tape, x *ad.Node) *ad.Node {
	return t.AddBias(t.MatMul(x, l.W.Node(t)), l.B.Node(t))
}

// Params returns the layer's trainable parameters.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// Activation selects the nonlinearity of an MLP layer.
type Activation int

// Supported activations.
const (
	ActNone Activation = iota
	ActReLU
	ActLeakyReLU
	ActTanh
	ActSigmoid
)

func applyAct(t *ad.Tape, a Activation, x *ad.Node) *ad.Node {
	switch a {
	case ActNone:
		return x
	case ActReLU:
		return t.ReLU(x)
	case ActLeakyReLU:
		return t.LeakyReLU(0.2, x)
	case ActTanh:
		return t.Tanh(x)
	case ActSigmoid:
		return t.Sigmoid(x)
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", a))
	}
}

// MLP is a stack of linear layers with a shared hidden activation and an
// optional output activation.
type MLP struct {
	Layers []*Linear
	Hidden Activation
	Output Activation
}

// NewMLP builds an MLP over the given layer sizes, e.g. sizes = [128, 64,
// 1] yields two linear layers. Hidden layers use hidden; the final layer
// uses output.
func NewMLP(name string, sizes []int, hidden, output Activation, r *rng.RNG) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least an input and output size")
	}
	m := &MLP{Hidden: hidden, Output: output}
	for i := 0; i+1 < len(sizes); i++ {
		m.Layers = append(m.Layers, NewLinear(fmt.Sprintf("%s.l%d", name, i), sizes[i], sizes[i+1], r))
	}
	return m
}

// Forward applies the MLP to a batch.
func (m *MLP) Forward(t *ad.Tape, x *ad.Node) *ad.Node {
	for i, l := range m.Layers {
		x = l.Forward(t, x)
		if i+1 < len(m.Layers) {
			x = applyAct(t, m.Hidden, x)
		} else {
			x = applyAct(t, m.Output, x)
		}
	}
	return x
}

// Params returns all trainable parameters of the MLP.
func (m *MLP) Params() []*Param {
	var out []*Param
	for _, l := range m.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// EmbeddingTable maps integer ids to dense rows with sparse gradient
// accumulation: only rows looked up during a step carry gradients, and
// Adam moment state is allocated per-row on first touch — the structure of
// the paper's parameter-server embedding storage.
type EmbeddingTable struct {
	Name string
	Dim  int
	rows *tensor.Matrix

	// Pending sparse gradients live in reusable slot storage: slot s holds
	// the gradient of row gradIDs[s] in gradBuf[s*Dim:(s+1)*Dim], and
	// gradSlot[id] is s+1 (0 while the row has none). Clearing empties
	// the slots in place and keeps their storage for the next step.
	gradSlot []int32
	gradIDs  []int32
	gradBuf  []float32

	// Per-row Adam moments, allocated on a row's first update: adamSlot[id]
	// is s+1 for the row whose m and v are adamBuf[2*s*Dim:(2*s+2)*Dim].
	adamSlot []int32
	adamBuf  []float32
	adamT    int
}

// NewEmbeddingTable creates a table of vocab rows of width dim,
// initialized uniformly in [-1/sqrt(dim), 1/sqrt(dim)].
func NewEmbeddingTable(name string, vocab, dim int, r *rng.RNG) *EmbeddingTable {
	if vocab <= 0 || dim <= 0 {
		panic("nn: embedding table needs positive vocab and dim")
	}
	e := &EmbeddingTable{
		Name: name,
		Dim:  dim,
		rows: tensor.NewMatrix(vocab, dim),
	}
	limit := float32(1 / math.Sqrt(float64(dim)))
	for i := range e.rows.Data {
		e.rows.Data[i] = (r.Float32()*2 - 1) * limit
	}
	return e
}

// Vocab returns the number of rows.
func (e *EmbeddingTable) Vocab() int { return e.rows.Rows }

// Row returns a read-only view of row id (no gradient tracking); used for
// inference-time embedding export.
func (e *EmbeddingTable) Row(id int32) tensor.Vec { return e.rows.Row(int(id)) }

// Rows selects the table rows ids for ad.Tape.Embed, one node row each;
// their gradients scatter back into the table's sparse gradient slots.
func (e *EmbeddingTable) Rows(ids []int32) ad.Rows {
	return ad.Rows{Table: e.rows, IDs: ids, Sink: e}
}

// MeanRow selects the mean of the table rows ids as one node row for
// ad.Tape.Embed, the pooling of a bag of ids such as a title's terms.
func (e *EmbeddingTable) MeanRow(ids []int32) ad.Rows {
	return ad.Rows{Table: e.rows, IDs: ids, Sink: e, Mean: true}
}

// Lookup gathers the rows for ids into a len(ids) x Dim node. Gradients
// scatter back into the table's sparse gradient slots.
func (e *EmbeddingTable) Lookup(t *ad.Tape, ids []int32) *ad.Node {
	return t.Embed(e.Rows(ids))
}

// LookupOne gathers a single row as a 1 x Dim node.
func (e *EmbeddingTable) LookupOne(t *ad.Tape, id int32) *ad.Node {
	return e.Lookup(t, []int32{id})
}

// AccumulateRow implements ad.GradSink: grad is added to the pending
// gradient of row id.
func (e *EmbeddingTable) AccumulateRow(id int32, grad tensor.Vec) {
	if e.gradSlot == nil {
		e.gradSlot = make([]int32, e.rows.Rows)
	}
	s := e.gradSlot[id]
	if s == 0 {
		e.gradIDs = append(e.gradIDs, id)
		e.gradBuf = append(e.gradBuf, make([]float32, e.Dim)...)
		s = int32(len(e.gradIDs))
		e.gradSlot[id] = s
	}
	g := e.pendingGrad(int(s - 1))
	for j := range g {
		g[j] += grad[j]
	}
}

// TouchedRows reports how many rows carry pending gradients.
func (e *EmbeddingTable) TouchedRows() int { return len(e.gradIDs) }

// ZeroGrad discards pending sparse gradients.
func (e *EmbeddingTable) ZeroGrad() {
	for _, id := range e.gradIDs {
		e.gradSlot[id] = 0
	}
	e.gradIDs = e.gradIDs[:0]
	e.gradBuf = e.gradBuf[:0]
}

// pendingGrad returns the gradient of slot s, which holds row e.gradIDs[s].
func (e *EmbeddingTable) pendingGrad(s int) []float32 {
	return e.gradBuf[s*e.Dim : (s+1)*e.Dim]
}

// StepSGD applies pending sparse gradients with plain SGD and clears them.
func (e *EmbeddingTable) StepSGD(lr float32) {
	for s, id := range e.gradIDs {
		g := e.pendingGrad(s)
		row := e.rows.Row(int(id))
		for j := range row {
			row[j] -= lr * g[j]
		}
	}
	e.ZeroGrad()
}

// StepAdam applies pending sparse gradients with Adam (lazy per-row
// moments, table-global bias correction) and clears them.
func (e *EmbeddingTable) StepAdam(lr float32, beta1, beta2, eps float64) {
	if e.adamSlot == nil {
		e.adamSlot = make([]int32, e.rows.Rows)
	}
	e.adamT++
	bc1 := 1 - math.Pow(beta1, float64(e.adamT))
	bc2 := 1 - math.Pow(beta2, float64(e.adamT))
	for s, id := range e.gradIDs {
		g := e.pendingGrad(s)
		a := e.adamSlot[id]
		if a == 0 {
			e.adamBuf = append(e.adamBuf, make([]float32, 2*e.Dim)...)
			a = int32(len(e.adamBuf) / (2 * e.Dim))
			e.adamSlot[id] = a
		}
		off := 2 * int(a-1) * e.Dim
		m, v := e.adamBuf[off:off+e.Dim], e.adamBuf[off+e.Dim:off+2*e.Dim]
		row := e.rows.Row(int(id))
		for j := range row {
			gj := float64(g[j])
			mj := beta1*float64(m[j]) + (1-beta1)*gj
			vj := beta2*float64(v[j]) + (1-beta2)*gj*gj
			m[j] = float32(mj)
			v[j] = float32(vj)
			row[j] -= float32(float64(lr) * (mj / bc1) / (math.Sqrt(vj/bc2) + eps))
		}
	}
	e.ZeroGrad()
}

// ApplyDelta adds delta to row id directly; the parameter-server path uses
// this to install worker-pushed updates.
func (e *EmbeddingTable) ApplyDelta(id int32, delta []float32) {
	row := e.rows.Row(int(id))
	for j := range row {
		row[j] += delta[j]
	}
}

// SGD is a plain stochastic-gradient-descent optimizer with optional L2
// weight decay (the paper's "regulation loss").
type SGD struct {
	LR          float32
	WeightDecay float32
}

// Step applies and clears gradients for the given dense parameters.
func (s *SGD) Step(params ...*Param) {
	for _, p := range params {
		for i := range p.Val.Data {
			g := p.Grad.Data[i] + s.WeightDecay*p.Val.Data[i]
			p.Val.Data[i] -= s.LR * g
			p.Grad.Data[i] = 0
		}
	}
}

// Adam is the Adam optimizer for dense parameters, with state keyed by
// parameter identity so one optimizer can drive a whole model.
type Adam struct {
	LR           float32
	Beta1, Beta2 float64
	Eps          float64
	WeightDecay  float32

	t     int
	state map[*Param]*adamState
}

type adamState struct{ m, v *tensor.Matrix }

// NewAdam returns an Adam optimizer with standard defaults
// (beta1=0.9, beta2=0.999, eps=1e-8).
func NewAdam(lr float32) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies and clears gradients for the given dense parameters.
func (a *Adam) Step(params ...*Param) {
	if a.state == nil {
		a.state = make(map[*Param]*adamState)
	}
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		st, ok := a.state[p]
		if !ok {
			st = &adamState{
				m: tensor.NewMatrix(p.Val.Rows, p.Val.Cols),
				v: tensor.NewMatrix(p.Val.Rows, p.Val.Cols),
			}
			a.state[p] = st
		}
		for i := range p.Val.Data {
			g := float64(p.Grad.Data[i] + a.WeightDecay*p.Val.Data[i])
			m := a.Beta1*float64(st.m.Data[i]) + (1-a.Beta1)*g
			v := a.Beta2*float64(st.v.Data[i]) + (1-a.Beta2)*g*g
			st.m.Data[i] = float32(m)
			st.v.Data[i] = float32(v)
			p.Val.Data[i] -= float32(float64(a.LR) * (m / bc1) / (math.Sqrt(v/bc2) + a.Eps))
			p.Grad.Data[i] = 0
		}
	}
}
