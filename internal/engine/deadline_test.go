package engine

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"zoomer/internal/graph"
	"zoomer/internal/graphbuild"
	"zoomer/internal/loggen"
	"zoomer/internal/partition"
	"zoomer/internal/rng"
)

// deadlineBackend wraps a shard store and records the deadline each
// single-sample call received.
type deadlineBackend struct {
	flakyBackend
	byCalls atomic.Int64
	lastDL  atomic.Pointer[time.Time] // the last deadline seen
}

func (db *deadlineBackend) SampleInto(id graph.NodeID, out []graph.NodeID, r *rng.RNG, deadline time.Time) (int, error) {
	db.byCalls.Add(1)
	db.lastDL.Store(&deadline)
	return db.flakyBackend.SampleInto(id, out, r, deadline)
}

func deadlineFixture(t *testing.T, shards int) (*Engine, [][]*deadlineBackend) {
	t.Helper()
	logs := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleTiny, 1))
	g := graphbuild.Build(logs, graphbuild.DefaultConfig()).Graph
	part := partition.Split(g, shards, partition.Hash)
	groups := make([][]ShardBackend, shards)
	backs := make([][]*deadlineBackend, shards)
	for id := 0; id < shards; id++ {
		sh := BuildShard(part, id, 1)
		a := &deadlineBackend{flakyBackend: flakyBackend{sh: sh}}
		backs[id] = []*deadlineBackend{a}
		groups[id] = []ShardBackend{a}
	}
	e := NewWithReplicaSets(part.RoutingTable(), groups, g.ContentDim())
	t.Cleanup(func() { e.Close() })
	return e, backs
}

// An already-expired deadline fails fast and typed: no backend call, no
// RNG consumption, no failover machinery.
func TestExpiredDeadlineFailsTypedWithoutWork(t *testing.T) {
	e, backs := deadlineFixture(t, 2)
	r := rng.New(9)
	before := r.State()
	out := make([]graph.NodeID, 4)
	_, err := e.TrySampleNeighborsIntoBy(1, out, r, time.Now().Add(-time.Millisecond))
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired deadline: got %v, want ErrDeadlineExceeded", err)
	}
	if r.State() != before {
		t.Fatal("expired call consumed the caller's RNG")
	}
	for _, g := range backs {
		for _, b := range g {
			if n := b.calls.Load() + b.byCalls.Load(); n != 0 {
				t.Fatalf("expired call reached a backend (%d calls)", n)
			}
		}
	}
}

// The caller's deadline reaches the backend's SampleInto unchanged (so a
// remote stub can shrink its per-call wire budget), and the unbounded
// call hands it the zero deadline.
func TestDeadlineRoutesThroughFacet(t *testing.T) {
	e, backs := deadlineFixture(t, 2)
	r := rng.New(9)
	out := make([]graph.NodeID, 4)
	owner := backs[e.ShardOf(1)][0]
	for _, dl := range []time.Time{time.Now().Add(time.Minute), {}} {
		before := owner.byCalls.Load()
		if _, err := e.TrySampleNeighborsIntoBy(1, out, r, dl); err != nil {
			t.Fatalf("sample with deadline %v: %v", dl, err)
		}
		if n := owner.byCalls.Load() - before; n != 1 {
			t.Fatalf("deadline %v: owning backend saw %d calls, want 1", dl, n)
		}
		if got := *owner.lastDL.Load(); !got.Equal(dl) {
			t.Fatalf("backend received deadline %v, want %v", got, dl)
		}
	}

	// The plain call is the unbounded one: it replaces a live deadline
	// with the zero value.
	if _, err := e.TrySampleNeighborsIntoBy(1, out, r, time.Now().Add(time.Hour)); err != nil {
		t.Fatalf("bounded sample: %v", err)
	}
	if _, err := e.TrySampleNeighborsInto(1, out, r); err != nil {
		t.Fatalf("unbounded sample: %v", err)
	}
	if got := *owner.lastDL.Load(); !got.IsZero() {
		t.Fatalf("unbounded call handed the backend deadline %v, want zero", got)
	}
}

// Deadline-bounded draws are bit-identical to unbounded ones — the
// deadline threading must not perturb the RNG stream.
func TestDeadlineDrawsBitIdentical(t *testing.T) {
	e, _ := deadlineFixture(t, 2)
	ra, rb := rng.New(11), rng.New(11)
	a := make([]graph.NodeID, 5)
	b := make([]graph.NodeID, 5)
	dl := time.Now().Add(time.Minute)
	for id := 0; id < e.NumNodes(); id += 13 {
		na, err := e.TrySampleNeighborsInto(graph.NodeID(id), a, ra)
		if err != nil {
			t.Fatalf("node %d unbounded: %v", id, err)
		}
		nb, err := e.TrySampleNeighborsIntoBy(graph.NodeID(id), b, rb, dl)
		if err != nil {
			t.Fatalf("node %d bounded: %v", id, err)
		}
		if na != nb {
			t.Fatalf("node %d: %d vs %d draws", id, na, nb)
		}
		for i := 0; i < na; i++ {
			if a[i] != b[i] {
				t.Fatalf("node %d draw %d: %d vs %d", id, i, a[i], b[i])
			}
		}
	}
}

// A deadline failure mid-failover must not continue the replica walk:
// the caller's budget is spent, and hammering siblings with doomed
// calls is exactly what the typed error exists to prevent.
func TestDeadlineStopsFailoverWalk(t *testing.T) {
	logs := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleTiny, 1))
	g := graphbuild.Build(logs, graphbuild.DefaultConfig()).Graph
	part := partition.Split(g, 1, partition.Hash)
	sh := BuildShard(part, 0, 1)
	// First replica fails transport-style; the sibling would serve. With
	// an expired deadline the walk must stop before touching the sibling.
	bad := &flakyBackend{sh: sh}
	bad.failing.Store(true)
	good := &flakyBackend{sh: sh}
	// Steer the rotation pick to the failing replica: pick skips
	// unhealthy siblings, but the failover walk would still reach them —
	// unless the deadline stops it first, which is what we assert.
	good.unhealthy.Store(true)
	e := NewWithReplicaSets(part.RoutingTable(), [][]ShardBackend{{bad, good}}, g.ContentDim())
	t.Cleanup(func() { e.Close() })

	r := rng.New(3)
	out := make([]graph.NodeID, 4)
	// Enter the failover path directly with an already-expired deadline:
	// attempt 0 fails transport-style, and the pre-attempt check must
	// stop the walk before the sibling is touched.
	n, failover, err := e.bset.Load().sampleShard(0, 1, out, r, time.Now().Add(-time.Millisecond))
	if err == nil || !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("failover under expired deadline: n=%d failover=%v err=%v", n, failover, err)
	}
	if good.calls.Load() != 0 {
		t.Fatal("expired deadline still walked to the sibling replica")
	}
}
