package routing

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netgen"
	"repro/internal/traffic"
	"repro/internal/trajgen"
)

// buildHybrid constructs a small trained hybrid graph for routing
// tests, shared across tests via a package-level cache (training is
// the expensive part).
var cached struct {
	g *graph.Graph
	h *core.HybridGraph
}

func hybridFixture(t testing.TB) (*graph.Graph, *core.HybridGraph) {
	t.Helper()
	if cached.h != nil {
		return cached.g, cached.h
	}
	g := netgen.Generate(netgen.PresetConfig(netgen.PresetTest))
	gen := trajgen.New(g, traffic.NewModel(traffic.Config{}), trajgen.Config{
		Seed: 5, NumTrips: 3000,
	})
	res := gen.Generate()
	params := core.DefaultParams()
	params.MaxRank = 4
	params.Beta = 20
	h, err := core.Build(g, res.Collection, params)
	if err != nil {
		t.Fatal(err)
	}
	cached.g, cached.h = g, h
	return g, h
}

// pickQuery finds a reachable OD pair a few edges apart.
func pickQuery(t testing.TB, g *graph.Graph) (graph.VertexID, graph.VertexID, float64) {
	t.Helper()
	src := graph.VertexID(10)
	dist := g.ShortestDistances(src, graph.FreeFlowWeight)
	var dst graph.VertexID = -1
	bestD := 0.0
	for v, d := range dist {
		if !math.IsInf(d, 1) && d > bestD && d < 400 {
			bestD = d
			dst = graph.VertexID(v)
		}
	}
	if dst < 0 {
		t.Skip("no suitable destination")
	}
	return src, dst, bestD
}

func TestBestPathFindsValidRoute(t *testing.T) {
	g, h := hybridFixture(t)
	src, dst, ff := pickQuery(t, g)
	r := New(&core.Evaluator{H: h})
	res, err := r.BestPath(Query{
		Source: src, Dest: dst, Depart: 8 * 3600, Budget: ff * 3,
	}, Options{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if !g.ValidPath(res.Path) {
		t.Fatalf("invalid path %v", res.Path)
	}
	vs := g.PathVertices(res.Path)
	if vs[0] != src || vs[len(vs)-1] != dst {
		t.Fatalf("path endpoints %v..%v, want %v..%v", vs[0], vs[len(vs)-1], src, dst)
	}
	if res.Prob <= 0 || res.Prob > 1 {
		t.Fatalf("prob = %v", res.Prob)
	}
	if res.Explored == 0 {
		t.Fatal("nothing explored")
	}
}

func TestBestPathProbMonotoneInBudget(t *testing.T) {
	g, h := hybridFixture(t)
	src, dst, ff := pickQuery(t, g)
	r := New(&core.Evaluator{H: h})
	prev := -1.0
	for _, mult := range []float64{1.2, 2, 4} {
		res, err := r.BestPath(Query{
			Source: src, Dest: dst, Depart: 8 * 3600, Budget: ff * mult,
		}, Options{Incremental: true})
		if err != nil {
			t.Fatalf("budget ×%v: %v", mult, err)
		}
		if res.Prob < prev-1e-9 {
			t.Fatalf("probability decreased with larger budget: %v -> %v", prev, res.Prob)
		}
		prev = res.Prob
	}
}

func TestBestPathMethodsAgreeOnEndpoints(t *testing.T) {
	g, h := hybridFixture(t)
	src, dst, ff := pickQuery(t, g)
	r := New(&core.Evaluator{H: h})
	for _, m := range []core.Method{core.MethodOD, core.MethodHP, core.MethodLB} {
		res, err := r.BestPath(Query{
			Source: src, Dest: dst, Depart: 8 * 3600, Budget: ff * 2.5,
		}, Options{Method: m, Incremental: true})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		vs := g.PathVertices(res.Path)
		if vs[0] != src || vs[len(vs)-1] != dst {
			t.Fatalf("%s: wrong endpoints", m)
		}
	}
}

func TestBestPathIncrementalMatchesBatchSearch(t *testing.T) {
	g, h := hybridFixture(t)
	src, dst, ff := pickQuery(t, g)
	r := New(&core.Evaluator{H: h})
	q := Query{Source: src, Dest: dst, Depart: 8 * 3600, Budget: ff * 2}
	inc, err := r.BestPath(q, Options{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	bat, err := r.BestPath(q, Options{Incremental: false})
	if err != nil {
		t.Fatal(err)
	}
	// The two searches may tie-break differently, but the best
	// probabilities must be close.
	if math.Abs(inc.Prob-bat.Prob) > 0.12 {
		t.Fatalf("incremental prob %v vs batch %v", inc.Prob, bat.Prob)
	}
}

func TestBestPathErrors(t *testing.T) {
	g, h := hybridFixture(t)
	r := New(&core.Evaluator{H: h})
	if _, err := r.BestPath(Query{Source: 1, Dest: 1, Budget: 100}, Options{}); err == nil {
		t.Fatal("source == dest accepted")
	}
	// A sink vertex (no outgoing edges back) may not exist in this
	// network; use an impossible budget instead: probability can be 0
	// but a path must still be reported (the best available).
	src, dst, _ := pickQuery(t, g)
	res, err := r.BestPath(Query{Source: src, Dest: dst, Depart: 8 * 3600, Budget: 1}, Options{Incremental: true})
	if err == nil && res.Prob > 0.01 {
		t.Fatalf("1-second budget should have ~0 probability, got %v", res.Prob)
	}
}

func TestFastestPath(t *testing.T) {
	g, h := hybridFixture(t)
	src, dst, ff := pickQuery(t, g)
	r := New(&core.Evaluator{H: h})
	p, d, err := r.FastestPath(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !g.ValidPath(p) {
		t.Fatal("invalid fastest path")
	}
	if math.Abs(d-ff) > 1e-9 {
		t.Fatalf("fastest = %v, want %v", d, ff)
	}
}

func TestPruningHappens(t *testing.T) {
	g, h := hybridFixture(t)
	src, dst, ff := pickQuery(t, g)
	r := New(&core.Evaluator{H: h})
	res, err := r.BestPath(Query{
		Source: src, Dest: dst, Depart: 8 * 3600, Budget: ff * 1.5,
	}, Options{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pruned == 0 && res.Explored > 100 {
		t.Fatal("large search with no pruning suggests the bound is broken")
	}
}
