package pathcost

// Ablation benchmarks for the implementation's design choices:
//
//   - the accumulated-cost bucket cap in the Eq. 2 chain evaluator
//     (accuracy/speed trade-off of MaxAccBuckets);
//   - Auto bucket selection vs fixed Sta-b during training;
//   - incremental routing states vs per-prefix recomputation;
//   - parallel vs serial weight instantiation.
//
// Run with: go test -bench=Ablation -benchmem

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/routing"
)

// BenchmarkAblationAccBuckets sweeps the chain evaluator's
// accumulator cap: small caps are faster but coarser.
func BenchmarkAblationAccBuckets(b *testing.B) {
	e := benchEnvironment(b)
	rnd := rand.New(rand.NewSource(10))
	var paths []graph.Path
	for len(paths) < 8 {
		start := graph.EdgeID(rnd.Intn(e.G.NumEdges()))
		if p := e.G.RandomWalkPath(start, 25, rnd.Intn); p != nil {
			paths = append(paths, p)
		}
	}
	for _, cap := range []int{8, 24, 48, 96, 0} {
		params := e.Params()
		params.MaxAccBuckets = cap
		h, err := e.Hybrid(params, 1)
		if err != nil {
			b.Fatal(err)
		}
		name := "cap=unlimited"
		if cap > 0 {
			name = "cap=" + itoa(cap)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := paths[i%len(paths)]
				if _, err := h.CostDistribution(p, 8*3600, core.QueryOptions{Method: core.MethodOD}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationAutoVsStatic compares training with Auto bucket
// selection against fixed Sta-b bucket counts.
func BenchmarkAblationAutoVsStatic(b *testing.B) {
	e := benchEnvironment(b)
	for _, static := range []int{0, 3, 4} {
		params := e.Params()
		params.StaticBuckets = static
		name := "auto"
		if static > 0 {
			name = "sta-" + itoa(static)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(e.G, e.Data(), params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationIncrementalRouting compares DFS routing with the
// incremental "path + another edge" states against per-prefix
// recomputation (the Σ RT(P, method) model).
func BenchmarkAblationIncrementalRouting(b *testing.B) {
	e, h := benchHybrid(b)
	r := routing.New(&core.Evaluator{H: h})
	src := graph.VertexID(20)
	dists := e.G.ShortestDistances(src, graph.FreeFlowWeight)
	var dst graph.VertexID = -1
	best := 0.0
	for v, d := range dists {
		if graph.VertexID(v) != src && d > best && d < 300 {
			best = d
			dst = graph.VertexID(v)
		}
	}
	if dst < 0 {
		b.Skip("no destination")
	}
	q := routing.Query{Source: src, Dest: dst, Depart: 8 * 3600, Budget: best * 2}
	for _, inc := range []bool{true, false} {
		name := "incremental"
		if !inc {
			name = "recompute"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := r.BestPath(q, routing.Options{Incremental: inc, MaxExpansions: 1500})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationParallelBuild compares serial and parallel weight
// instantiation.
func BenchmarkAblationParallelBuild(b *testing.B) {
	e := benchEnvironment(b)
	for _, workers := range []int{1, 4, 8} {
		params := e.Params()
		params.Workers = workers
		b.Run("workers="+itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(e.G, e.Data(), params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
