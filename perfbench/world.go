package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"zoomer/internal/ann"
	"zoomer/internal/core"
	"zoomer/internal/engine"
	"zoomer/internal/gateway"
	"zoomer/internal/graph"
	"zoomer/internal/graphbuild"
	"zoomer/internal/ingest"
	"zoomer/internal/loggen"
	"zoomer/internal/partition"
	"zoomer/internal/rpc"
	"zoomer/internal/serve"
	"zoomer/internal/tensor"
)

// worldSeed is the deployed world seed: zoomer-gateway and zoomer-shard
// both run with -seed 1. The workload seed never reaches the world.
const worldSeed = 1

// world is one scale-small synthetic world, built the way every binary
// builds its own.
type world struct {
	logs *loggen.Logs
	res  *graphbuild.Result
}

func buildWorld() *world {
	logs := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleSmall, worldSeed))
	return &world{logs: logs, res: graphbuild.Build(logs, graphbuild.DefaultConfig())}
}

// worldInfo identifies a built graph: its edge count and the first 16
// hex digits of the SHA-256 of its serialized form.
type worldInfo struct {
	Name   string `json:"name"`
	Nodes  int    `json:"nodes"`
	Edges  int    `json:"edges"`
	Digest string `json:"sha256"`
}

func describeWorld(name string, g *graph.Graph) (worldInfo, error) {
	h := sha256.New()
	if _, err := g.WriteTo(h); err != nil {
		return worldInfo{}, fmt.Errorf("digest of %s world: %w", name, err)
	}
	return worldInfo{Name: name, Nodes: g.NumNodes(), Edges: g.NumEdges(), Digest: hex.EncodeToString(h.Sum(nil))[:16]}, nil
}

// worldsAgree reports whether every world a run built is the same graph.
func worldsAgree(ws []worldInfo) bool {
	for i := 1; i < len(ws); i++ {
		if ws[i].Digest != ws[0].Digest || ws[i].Edges != ws[0].Edges {
			return false
		}
	}
	return true
}

// Serving topology, at zoomer-gateway's and zoomer-shard's defaults.
const (
	serveTrainSteps = 100 // zoomer-gateway -train
	serveShards     = 4   // -shards
	serveReplicas   = 2   // -replicas
	serveWorkers    = 4   // -workers
	serveCacheK     = 30  // -cachek
	serveTopK       = 100 // -topk
	serveQueue      = 4096
)

// stack is a serving stack brought up in-process: the shard servers
// (remote topology only), the serving tier and the HTTP gateway on a
// loopback listener.
type stack struct {
	w       *world
	emb     *serve.Embedder
	eng     *engine.Engine
	cache   *serve.NeighborCache
	index   *ann.Index
	srv     *serve.Server
	scfg    serve.Config
	cluster *rpc.Cluster
	shards  []*rpc.Server
	worlds  []worldInfo // every world built, shard servers' first

	model *core.Zoomer
	test  []core.Instance

	httpSrv *http.Server
	served  chan struct{} // closed when httpSrv.Serve returned
	base    string
}

// ingestFacet is the write-path facet the gateway gets, as
// servestack.Stack provides it: appends routed through the engine,
// ingest rows polled from the cluster when the shards are remote.
type ingestFacet struct {
	eng     *engine.Engine
	cluster *rpc.Cluster
}

func (f ingestFacet) Append(edges []ingest.Edge) (int, error) { return f.eng.Append(edges) }

func (f ingestFacet) IngestStats() []engine.IngestStats {
	if f.cluster != nil {
		return f.cluster.IngestStats()
	}
	return f.eng.IngestStats()
}

// bringUp starts a serving stack. With remote it first starts the
// compose topology's two shard servers — each building its own world,
// owning all partitions, journaling appends under walDir with fsync,
// the second announcing itself to the first — and dials the serving
// tier to them. The serving tier follows servestack.Build step by step
// through the same public constructors, with one difference: the
// warm-up training is handed no test set, so it skips the final
// evaluation over the whole test set whose result servestack.Build
// discards (the servestack.discarded_eval_s per-layer metric estimates
// its cost). Each world's digest is taken as it is built, so no extra
// graph stays in memory.
func bringUp(remote bool, walDir string) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	var addrs []string
	if remote {
		for i := 0; i < 2; i++ {
			g := buildWorld().res.Graph
			if err := st.describe(fmt.Sprintf("shard%d", i), g); err != nil {
				return st, err
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return st, err
			}
			addr := ln.Addr().String()
			srv := rpc.NewServer(g, rpc.ServerConfig{
				Shards:    serveShards,
				Strategy:  partition.Hash,
				Replicas:  serveReplicas,
				Locality:  true,
				Advertise: addr,
				WALDir:    filepath.Join(walDir, fmt.Sprintf("shard%d", i)),
				Fsync:     true,
			})
			srv.Start(ln)
			st.shards = append(st.shards, srv)
			if i > 0 {
				if err := srv.AnnounceTo(addrs[0], 0); err != nil {
					return st, err
				}
			}
			addrs = append(addrs, addr)
		}
	}

	st.w = buildWorld()
	g, m := st.w.res.Graph, st.w.res.Mapping
	if err := st.describe("gateway", g); err != nil {
		return st, err
	}

	ds := loggen.BuildExamples(st.w.logs, 1, 0.2, worldSeed+1)
	train := core.InstancesFromExamples(ds.Train, m)
	st.test = core.InstancesFromExamples(ds.Test, m)
	st.model = core.NewZoomer(g, st.w.logs.Vocab(), core.DefaultConfig(), worldSeed+2)
	tc := core.DefaultTrainConfig()
	tc.MaxSteps = serveTrainSteps
	core.Train(st.model, train, nil, tc)
	st.emb = serve.NewEmbedder(st.model.ExportServing())

	if remote {
		st.cluster, err = rpc.DialClusterWith(rpc.ClientConfig{}, addrs...)
		if err != nil {
			return st, err
		}
		if st.cluster.Info.NumNodes != g.NumNodes() {
			return st, fmt.Errorf("cluster serves %d nodes, gateway world has %d", st.cluster.Info.NumNodes, g.NumNodes())
		}
		st.eng = st.cluster.Engine
	} else {
		st.eng = engine.New(g, engine.Config{Shards: serveShards, Replicas: serveReplicas, Strategy: partition.Hash, Locality: true})
	}

	st.scfg = serve.DefaultConfig()
	st.scfg.Workers, st.scfg.CacheK, st.scfg.TopK, st.scfg.QueueSize = serveWorkers, serveCacheK, serveTopK, serveQueue
	st.scfg.Seed = worldSeed + 10
	st.cache = serve.NewNeighborCache(st.eng, st.scfg.CacheK, worldSeed+3)

	items := g.NodesOfType(graph.Item)
	ids := make([]int64, len(items))
	vecs := make([]tensor.Vec, len(items))
	for i, it := range items {
		ids[i] = int64(it)
		vecs[i] = st.emb.Item(it)
	}
	nlist := len(items) / 64
	if nlist < 4 {
		nlist = 4
	}
	st.index = ann.Build(ids, vecs, ann.Config{NumLists: nlist, Iters: 6, Seed: worldSeed + 4})
	st.srv = serve.NewServer(st.emb, st.cache, st.index, st.scfg)

	gw := gateway.New(st.srv, g.NodesOfType(graph.User), g.NodesOfType(graph.Query), g.NumNodes(), gateway.Config{
		MaxInFlight:     256,
		ShedFraction:    0.75,
		DefaultDeadline: 200 * time.Millisecond,
		MaxDeadline:     2 * time.Second,
		Logger:          slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})),
	})
	gw.EnableIngest(ingestFacet{eng: st.eng, cluster: st.cluster}, st.cache)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, err
	}
	st.base = "http://" + ln.Addr().String()
	st.httpSrv = &http.Server{Handler: gw.Handler()}
	st.served = make(chan struct{})
	go func() {
		defer close(st.served)
		_ = st.httpSrv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return st, nil
}

func (st *stack) describe(name string, g *graph.Graph) error {
	info, err := describeWorld(name, g)
	st.worlds = append(st.worlds, info)
	return err
}

// close tears the stack down in reverse bring-up order and waits for
// every goroutine it started.
func (st *stack) close() {
	if st.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := st.httpSrv.Shutdown(ctx); err != nil {
			_ = st.httpSrv.Close() // in-flight handlers past the grace period
		}
		cancel()
		<-st.served
	}
	if st.srv != nil {
		st.srv.Close()
	}
	if st.cache != nil {
		st.cache.Close()
	}
	if st.cluster != nil {
		st.cluster.Close()
	} else if st.eng != nil {
		st.eng.Close()
	}
	for _, s := range st.shards {
		s.Close()
	}
}

// readPairs replays (user, query) pairs from the world's interaction
// stream under seed, mapped to graph ids; a stream that runs dry
// continues with the next seed.
func readPairs(w *world, seed uint64, n int) [][2]graph.NodeID {
	m := w.res.Mapping
	out := make([][2]graph.NodeID, 0, n)
	s := w.logs.Stream(seed)
	for len(out) < n {
		iv, ok := s.Next()
		if !ok {
			seed++
			s = w.logs.Stream(seed)
			continue
		}
		out = append(out, [2]graph.NodeID{m.UserNode(iv.User), m.QueryNode(iv.Query)})
	}
	return out
}

// appendBatches turns stream interactions into graph-append batches: the
// user–query and query–item click edges in both directions, plus the
// session edge in both directions when the click had a predecessor.
func appendBatches(w *world, seed uint64, n int) [][]ingest.Edge {
	m := w.res.Mapping
	out := make([][]ingest.Edge, 0, n)
	s := w.logs.Stream(seed)
	for len(out) < n {
		iv, ok := s.Next()
		if !ok {
			seed++
			s = w.logs.Stream(seed)
			continue
		}
		u, q, it := m.UserNode(iv.User), m.QueryNode(iv.Query), m.ItemNode(iv.Item)
		b := []ingest.Edge{
			{Src: u, Dst: q, Type: graph.Click, Weight: 1},
			{Src: q, Dst: u, Type: graph.Click, Weight: 1},
			{Src: q, Dst: it, Type: graph.Click, Weight: 1},
			{Src: it, Dst: q, Type: graph.Click, Weight: 1},
		}
		if iv.PrevItem >= 0 {
			p := m.ItemNode(iv.PrevItem)
			b = append(b,
				ingest.Edge{Src: p, Dst: it, Type: graph.Session, Weight: 1},
				ingest.Edge{Src: it, Dst: p, Type: graph.Session, Weight: 1})
		}
		out = append(out, b)
	}
	return out
}
