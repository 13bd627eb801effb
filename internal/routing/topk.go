package routing

import (
	"container/heap"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hist"
)

// TopKResult is one ranked path of a probabilistic top-k query.
type TopKResult struct {
	Path graph.Path
	Prob float64
	Dist *hist.Histogram
}

// TopKPaths answers the probabilistic top-k path query of Hua & Pei
// [10]: the k loop-free paths from source to destination with the
// highest probability of arriving within the budget. It reuses the
// DFS machinery with a result heap; pruning compares against the k-th
// best incumbent instead of the single best.
func (r *Router) TopKPaths(q Query, k int, opt Options) ([]TopKResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("routing: k = %d must be ≥ 1", k)
	}
	if opt.Method == "" {
		opt.Method = core.MethodOD
	}
	if opt.MaxExpansions == 0 {
		opt.MaxExpansions = 20000
	}
	if opt.MaxEdges == 0 {
		opt.MaxEdges = 150
	}
	g := r.ev.H.G
	if q.Source == q.Dest {
		return nil, fmt.Errorf("routing: source equals destination")
	}
	lb := g.ReverseShortestDistances(q.Dest, graph.FreeFlowWeight)
	if isInf(lb[q.Source]) {
		return nil, fmt.Errorf("routing: destination unreachable from source")
	}

	results := &topKHeap{}
	heap.Init(results)
	kth := func() float64 {
		if results.Len() < k {
			return 0
		}
		return (*results)[0].Prob
	}

	explored := 0
	qopt := core.QueryOptions{Method: opt.Method, RankCap: opt.RankCap}
	var batch *core.BatchPlanner
	if opt.BatchWorkers > 1 {
		batch = core.NewBatchPlanner(opt.BatchWorkers)
	}
	visited := make(map[graph.VertexID]bool)
	visited[q.Source] = true

	var dfs func(prefix graph.Path, state *core.PathState, v graph.VertexID) error
	dfs = func(prefix graph.Path, state *core.PathState, v graph.VertexID) error {
		if explored >= opt.MaxExpansions || len(prefix) >= opt.MaxEdges {
			return nil
		}
		outs := append([]graph.EdgeID(nil), g.Out(v)...)
		sort.Slice(outs, func(i, j int) bool {
			return lb[g.Edge(outs[i]).To] < lb[g.Edge(outs[j]).To]
		})
		bpos, bstates, berrs := r.frontierBatch(batch, lb, visited, state, q.Depart, qopt, outs)
		for _, eid := range outs {
			e := g.Edge(eid)
			if visited[e.To] || isInf(lb[e.To]) {
				continue
			}
			if explored >= opt.MaxExpansions {
				return nil
			}
			var ns *core.PathState
			var err error
			if i, ok := bpos[eid]; ok {
				ns, err = bstates[i], berrs[i]
			} else {
				ns, err = r.ev.Extend(state, eid, q.Depart, qopt)
			}
			if err != nil {
				return err
			}
			explored++
			dist, err := ns.DistErr()
			if err != nil {
				return err
			}
			if e.To == q.Dest {
				p := dist.CDF(q.Budget)
				if results.Len() < k {
					heap.Push(results, TopKResult{
						Path: append(prefix.Clone(), eid), Prob: p, Dist: dist,
					})
				} else if p > kth() {
					(*results)[0] = TopKResult{
						Path: append(prefix.Clone(), eid), Prob: p, Dist: dist,
					}
					heap.Fix(results, 0)
				}
				continue
			}
			if dist.CDF(q.Budget-lb[e.To]) <= kth() {
				continue
			}
			visited[e.To] = true
			err = dfs(append(prefix, eid), ns, e.To)
			visited[e.To] = false
			if err != nil {
				return err
			}
		}
		return nil
	}
	start := time.Now()
	if err := dfs(nil, nil, q.Source); err != nil {
		return nil, err
	}
	_ = start
	if results.Len() == 0 {
		return nil, fmt.Errorf("routing: no path to destination found within limits")
	}
	out := make([]TopKResult, results.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(results).(TopKResult)
	}
	// out is now descending by probability.
	return out, nil
}

func isInf(v float64) bool { return v > 1e300 }

// topKHeap is a min-heap on probability so the worst incumbent is on
// top and cheap to replace.
type topKHeap []TopKResult

func (h topKHeap) Len() int            { return len(h) }
func (h topKHeap) Less(i, j int) bool  { return h[i].Prob < h[j].Prob }
func (h topKHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *topKHeap) Push(x interface{}) { *h = append(*h, x.(TopKResult)) }
func (h *topKHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
