package core

import (
	"io"
	"math"

	"zoomer/internal/ad"
	"zoomer/internal/graph"
	"zoomer/internal/loggen"
	"zoomer/internal/nn"
	"zoomer/internal/rng"
	"zoomer/internal/sampling"
	"zoomer/internal/tensor"
)

// Config parameterizes the Zoomer model. The three Use* switches are the
// ablation knobs of Fig. 8: disabling UseSemanticAttn yields Zoomer-FE,
// UseEdgeAttn yields Zoomer-FS, UseFeatureProj yields Zoomer-ES, and
// disabling all three degrades to a mean-pooling GCN.
type Config struct {
	EmbedDim int // latent dimensionality d (paper: 128)
	OutDim   int // tower output dimensionality
	Hops     int // neighborhood depth (paper: 2 for Taobao, 1 for MovieLens)
	FanOut   int // sampled neighbors per hop (paper: 10 default)

	UseFeatureProj  bool
	UseEdgeAttn     bool
	UseSemanticAttn bool

	// Sampler constructs the ROI; nil means the paper's focal-biased
	// sampler.
	Sampler sampling.Sampler

	// LogitScale multiplies the cosine score into a logit; cosine lives in
	// [-1,1], so without scaling the model cannot express confident
	// probabilities.
	LogitScale float32
}

// DefaultConfig returns the configuration used by the offline experiments
// (scaled-down analog of the paper's settings).
func DefaultConfig() Config {
	return Config{
		EmbedDim:        32,
		OutDim:          32,
		Hops:            2,
		FanOut:          10,
		UseFeatureProj:  true,
		UseEdgeAttn:     true,
		UseSemanticAttn: true,
		LogitScale:      5,
	}
}

// Zoomer is the paper's model: focal selection, ROI sampling, and
// ROI-based multi-level attention feeding a twin-tower CTR head.
type Zoomer struct {
	cfg Config
	g   GraphView
	fe  *FeatureEmbedder

	// Space mappings projecting each focal-point type into the shared
	// latent space before summation into the focal vector (§V-A).
	mapUser, mapQuery *nn.Linear

	// Edge-level attention vectors a (eq. 8), one per tower.
	attnUser, attnQuery *nn.Param

	towerUQ   *nn.MLP // user+query tower over [h_u ‖ h_q]
	towerItem *nn.MLP // base item tower (§V-B: no graph attention on items)

	sampler sampling.Sampler
	name    string
}

// NewZoomer builds the model over view g (a monolithic graph, a local
// sharded engine, or a remote cluster) with vocabulary v.
func NewZoomer(g GraphView, v loggen.Vocab, cfg Config, seed uint64) *Zoomer {
	r := rng.New(seed)
	d := cfg.EmbedDim
	s := cfg.Sampler
	if s == nil {
		s = sampling.NewFocalBiased()
	}
	z := &Zoomer{
		cfg:       cfg,
		g:         g,
		fe:        NewFeatureEmbedder(v, d, r.Split()),
		mapUser:   nn.NewLinear("focal.user", d, d, r.Split()),
		mapQuery:  nn.NewLinear("focal.query", d, d, r.Split()),
		attnUser:  nn.NewParam("attn.user", 3*d, 1).XavierInit(r.Split()),
		attnQuery: nn.NewParam("attn.query", 3*d, 1).XavierInit(r.Split()),
		towerUQ:   nn.NewMLP("tower.uq", []int{2 * d, d, cfg.OutDim}, nn.ActReLU, nn.ActNone, r.Split()),
		towerItem: nn.NewMLP("tower.item", []int{d, d, cfg.OutDim}, nn.ActReLU, nn.ActNone, r.Split()),
		sampler:   s,
		name:      "zoomer",
	}
	if !cfg.UseFeatureProj && !cfg.UseEdgeAttn && !cfg.UseSemanticAttn {
		z.name = "gcn"
	} else if !cfg.UseSemanticAttn {
		z.name = "zoomer-fe"
	} else if !cfg.UseEdgeAttn {
		z.name = "zoomer-fs"
	} else if !cfg.UseFeatureProj {
		z.name = "zoomer-es"
	}
	return z
}

// Name implements Model.
func (z *Zoomer) Name() string { return z.name }

// View returns the graph view the model reads through.
func (z *Zoomer) View() GraphView { return z.g }

// BindView implements ViewBinder: rebinding swaps the read path (e.g.
// onto a different engine topology) without touching trained weights.
func (z *Zoomer) BindView(g GraphView) { z.g = g }

// Config returns the model configuration.
func (z *Zoomer) Config() Config { return z.cfg }

// DenseParams implements Model.
func (z *Zoomer) DenseParams() []*nn.Param {
	out := []*nn.Param{z.attnUser, z.attnQuery}
	out = append(out, z.mapUser.Params()...)
	out = append(out, z.mapQuery.Params()...)
	out = append(out, z.towerUQ.Params()...)
	out = append(out, z.towerItem.Params()...)
	return out
}

// Tables implements Model.
func (z *Zoomer) Tables() []*nn.EmbeddingTable { return z.fe.Tables() }

// forwardScratch is the reusable storage of the request-side forward
// passes over one batch: the ROI trees' sampling scratch, the sampling
// focal vector, and the attention levels' node lists, which the tree
// recursion uses as a stack.
type forwardScratch struct {
	sc    *sampling.Scratch
	focal tensor.Vec
	nodes []*ad.Node
}

func newForwardScratch() *forwardScratch {
	return &forwardScratch{sc: sampling.NewScratch()}
}

// samplingFocal is the static focal vector Fc of eq. (5): the sum of the
// focal points' content features, used to score neighbors during ROI
// construction (no learned parameters — sampling happens outside the
// training graph). It lives in fs until the next call.
func (z *Zoomer) samplingFocal(u, q graph.NodeID, fs *forwardScratch) tensor.Vec {
	fs.focal = append(fs.focal[:0], make(tensor.Vec, z.g.ContentDim())...)
	fc := fs.focal
	if c := z.g.Content(u); c != nil {
		tensor.Axpy(1, c, fc)
	}
	if c := z.g.Content(q); c != nil {
		tensor.Axpy(1, c, fc)
	}
	return fc
}

// focalVector computes the learned focal vector (§V-A): per-type space
// mapping of the focal points' embeddings, then summation.
func (z *Zoomer) focalVector(t *ad.Tape, u, q graph.NodeID) *ad.Node {
	eu := t.MeanRows(z.fe.FeatureMatrix(t, z.g, u))
	eq := t.MeanRows(z.fe.FeatureMatrix(t, z.g, q))
	return t.Add(z.mapUser.Forward(t, eu), z.mapQuery.Forward(t, eq))
}

// featureLevel applies eq. (6)–(7): focal-conditioned softmax weights over
// the node's feature slots, returning the reweighed 1 x d node embedding.
// With the ablation off it mean-pools the slots.
func (z *Zoomer) featureLevel(t *ad.Tape, H, C *ad.Node) *ad.Node {
	if !z.cfg.UseFeatureProj {
		return t.MeanRows(H)
	}
	// scores = H·Cᵀ/√d  (n x 1), softmaxed across slots.
	scores := t.Scale(1/float32(math.Sqrt(float64(z.cfg.EmbedDim))), t.MatMul(H, t.Transpose(C)))
	w := t.SoftmaxRows(t.Transpose(scores)) // 1 x n
	return t.MatMul(w, H)                   // 1 x d: Σ w_i · H_i
}

// edgeLevel applies eq. (8)–(9) to one neighbor type: focal-conditioned
// attention over the type's neighbor embeddings. zf is the ego's
// feature-level embedding, C the focal vector, a the attention vector.
// With the ablation off it mean-pools the neighbors.
func (z *Zoomer) edgeLevel(t *ad.Tape, zf, C *ad.Node, nbrs []*ad.Node, a *ad.Node, fs *forwardScratch) *ad.Node {
	stack := t.ConcatRows(nbrs...)
	if !z.cfg.UseEdgeAttn {
		return t.MeanRows(stack)
	}
	base := len(fs.nodes)
	for _, zj := range nbrs {
		fs.nodes = append(fs.nodes, edgeScore(t, zf, zj, C, a))
	}
	w := t.SoftmaxRows(t.ConcatCols(fs.nodes[base:]...)) // 1 x m
	fs.nodes = fs.nodes[:base]
	return t.MatMul(w, stack) // Σ e_ij · Z_j
}

// edgeScore is the unnormalized edge-attention coefficient of eq. (8),
// LeakyReLU([(Z_i ‖ Z_j) ‖ Z_c]·a), scored without building the
// concatenation.
func edgeScore(t *ad.Tape, zf, zj, C, a *ad.Node) *ad.Node {
	return t.LeakyReLU(0.2, t.ConcatMatMul(a, zf, zj, C))
}

// semanticLevel applies eq. (10)–(11): per-type aggregates are combined
// with weights cos(ego, aggregate). With the ablation off it mean-pools
// the types.
func (z *Zoomer) semanticLevel(t *ad.Tape, zf *ad.Node, perType []*ad.Node) *ad.Node {
	if len(perType) == 1 {
		if !z.cfg.UseSemanticAttn {
			return perType[0]
		}
		return t.ScaleBy(t.CosineSim(zf, perType[0]), perType[0])
	}
	if !z.cfg.UseSemanticAttn {
		return t.MeanRows(t.ConcatRows(perType...))
	}
	var acc *ad.Node
	for _, e := range perType {
		weighted := t.ScaleBy(t.CosineSim(zf, e), e)
		if acc == nil {
			acc = weighted
		} else {
			acc = t.Add(acc, weighted)
		}
	}
	return acc
}

// embedTree computes the multi-level-attention embedding of a sampled ROI
// tree, recursively: leaves contribute their (feature-level) embeddings;
// interior nodes aggregate children per type with edge attention and
// combine types semantically, with a residual connection to the ego's own
// feature embedding. It uses fs.nodes as a stack and leaves it as it
// found it.
func (z *Zoomer) embedTree(t *ad.Tape, tree *sampling.Tree, C, a *ad.Node, fs *forwardScratch) *ad.Node {
	H := z.fe.FeatureMatrix(t, z.g, tree.Node)
	zf := z.featureLevel(t, H, C)
	if len(tree.Children) == 0 {
		return zf
	}
	// Stack the children's embeddings, then stack them again grouped by
	// neighbor type (eq. 8 normalizes within type).
	base := len(fs.nodes)
	for _, child := range tree.Children {
		fs.nodes = append(fs.nodes, z.embedTree(t, child, C, a, fs))
	}
	perType := len(fs.nodes)
	for nt := range graph.NodeType(graph.NumNodeTypes) {
		group := len(fs.nodes)
		for i := range tree.Children {
			if z.g.Type(tree.Edges[i].To) == nt {
				fs.nodes = append(fs.nodes, fs.nodes[base+i])
			}
		}
		if len(fs.nodes) == group {
			continue
		}
		agg := z.edgeLevel(t, zf, C, fs.nodes[group:], a, fs)
		fs.nodes = append(fs.nodes[:group], agg)
	}
	out := t.Add(zf, z.semanticLevel(t, zf, fs.nodes[perType:]))
	fs.nodes = fs.nodes[:base]
	return out
}

// itemBase is the base item model of §V-B: feature embedding through the
// item tower, no graph attention (matching the online deployment).
func (z *Zoomer) itemBase(t *ad.Tape, item graph.NodeID) *ad.Node {
	emb := t.MeanRows(z.fe.FeatureMatrix(t, z.g, item))
	return z.towerItem.Forward(t, emb)
}

// uqForward runs the user and query towers for one request and returns
// the combined user-query vector. fs backs the ROI construction; it is
// reset here, so trees from the previous request must no longer be in
// use.
func (z *Zoomer) uqForward(t *ad.Tape, u, q graph.NodeID, r *rng.RNG, fs *forwardScratch) *ad.Node {
	C := z.focalVector(t, u, q)
	fc := z.samplingFocal(u, q, fs)
	fs.sc.Reset()
	treeU := sampling.BuildTree(z.g, u, fc, z.cfg.Hops, z.cfg.FanOut, z.sampler, r, fs.sc)
	treeQ := sampling.BuildTree(z.g, q, fc, z.cfg.Hops, z.cfg.FanOut, z.sampler, r, fs.sc)
	hu := z.embedTree(t, treeU, C, z.attnUser.Node(t), fs)
	hq := z.embedTree(t, treeQ, C, z.attnQuery.Node(t), fs)
	return z.towerUQ.Forward(t, t.ConcatCols(hu, hq))
}

// Logits implements Model: per-example twin-tower cosine scores scaled
// into logits. One forward scratch serves the whole batch, so ROI
// construction and the attention levels allocate only on the first
// examples.
func (z *Zoomer) Logits(t *ad.Tape, batch []Instance, r *rng.RNG) *ad.Node {
	fs := newForwardScratch()
	rows := make([]*ad.Node, len(batch))
	for i, ex := range batch {
		uq := z.uqForward(t, ex.User, ex.Query, r, fs)
		it := z.itemBase(t, ex.Item)
		rows[i] = t.Scale(z.cfg.LogitScale, t.CosineSim(uq, it))
	}
	return t.ConcatRows(rows...)
}

// UserQueryEmbedding implements Model (inference path: forward only).
func (z *Zoomer) UserQueryEmbedding(u, q graph.NodeID, r *rng.RNG) tensor.Vec {
	t := ad.NewTape()
	out := z.uqForward(t, u, q, r, newForwardScratch())
	return tensor.Copy(out.Val.Row(0))
}

// ItemEmbedding implements Model.
func (z *Zoomer) ItemEmbedding(item graph.NodeID, _ *rng.RNG) tensor.Vec {
	t := ad.NewTape()
	out := z.itemBase(t, item)
	return tensor.Copy(out.Val.Row(0))
}

// EdgeAttentionWeights exposes the trained edge-level coupling
// coefficients for interpretability (Fig. 13): for ego node with the given
// focal points, it returns the attention weight assigned to each listed
// neighbor. Weights are softmax-normalized over the provided set.
func (z *Zoomer) EdgeAttentionWeights(ego graph.NodeID, focalU, focalQ graph.NodeID, neighbors []graph.NodeID) []float32 {
	t := ad.NewTape()
	C := z.focalVector(t, focalU, focalQ)
	H := z.fe.FeatureMatrix(t, z.g, ego)
	zf := z.featureLevel(t, H, C)
	a := z.attnUser.Node(t)
	scores := make([]*ad.Node, len(neighbors))
	for i, nb := range neighbors {
		Hn := z.fe.FeatureMatrix(t, z.g, nb)
		zn := z.featureLevel(t, Hn, C)
		scores[i] = edgeScore(t, zf, zn, C, a)
	}
	w := t.SoftmaxRows(t.ConcatCols(scores...))
	return tensor.Copy(w.Val.Row(0))
}

// Save writes a checkpoint of all trainable state (dense parameters and
// embedding tables) to w.
func (z *Zoomer) Save(w io.Writer) error {
	return nn.SaveCheckpoint(w, z.DenseParams(), z.Tables())
}

// Load restores a checkpoint written by Save into this model; the
// architecture (and thus parameter names/shapes) must match.
func (z *Zoomer) Load(r io.Reader) error {
	return nn.LoadCheckpoint(r, z.DenseParams(), z.Tables())
}
