package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/graph"
)

// randomWorkload builds a random chain-graph workload: trajectories of
// random spans with regime-correlated costs, so instantiated variables
// of many ranks exist.
func randomWorkload(seed int64) (*graph.Graph, *gps.Collection, Params) {
	rnd := rand.New(rand.NewSource(seed))
	nEdges := 6 + rnd.Intn(5)
	b := graph.NewBuilder()
	var vs []graph.VertexID
	for i := 0; i <= nEdges; i++ {
		vs = append(vs, b.AddVertex(pointAt(i)))
	}
	for i := 0; i < nEdges; i++ {
		b.AddEdge(vs[i], vs[i+1], 200+rnd.Float64()*400, 50, graph.ClassSecondary)
	}
	g := b.Freeze()

	params := DefaultParams()
	params.Beta = 8
	params.MaxRank = 3 + rnd.Intn(3)

	var trajs []*gps.Matched
	day := gps.SecondsPerDay
	nTrips := 120 + rnd.Intn(200)
	for i := 0; i < nTrips; i++ {
		start := rnd.Intn(nEdges - 2)
		span := 3 + rnd.Intn(nEdges-start-2)
		path := make(graph.Path, span)
		for j := range path {
			path[j] = graph.EdgeID(start + j)
		}
		depart := float64(i%7)*day + 8*3600 + rnd.Float64()*1200
		base := 20 + rnd.Float64()*10
		if rnd.Float64() < 0.4 {
			base *= 2.2 // congested regime for the whole trip
		}
		costs := make([]float64, span)
		for j := range costs {
			costs[j] = base + rnd.Float64()*8
		}
		trajs = append(trajs, &gps.Matched{
			ID: int64(i), Path: path, Depart: depart, EdgeCosts: costs,
		})
	}
	return g, gps.NewCollection(trajs, 0), params
}

func pointAt(i int) geo.Point {
	return geo.Point{Lat: 57 + float64(i)*0.002, Lon: 9.9}
}

// checkPrefixOverlaps asserts the shape the merge-join multiply
// relies on: before each factor, the chain state keeps open exactly
// the edges the factor shares with its predecessor, and they must be
// a leading prefix of the factor's positions. multiply refuses any
// other shape, so a decomposition failing this would make evaluation
// error out rather than mis-join.
func checkPrefixOverlaps(de *Decomposition) error {
	for i := 1; i < len(de.Vars); i++ {
		open := overlapWithNext(de, i-1)
		idx := indexOf(factorPositions(de, i), open)
		if len(idx) != len(open) {
			return fmt.Errorf("factor %d at %d: overlap %v not inside its positions", i, de.Pos[i], open)
		}
		for j, d := range idx {
			if d != j {
				return fmt.Errorf("factor %d at %d: overlap %v is not a leading prefix", i, de.Pos[i], open)
			}
		}
	}
	return nil
}

// PROPERTY: on arbitrary random workloads, every decomposition kind is
// valid, the coarsest decomposition dominates the others (their paths
// are sub-paths of OD's), and every estimator returns a proper
// distribution.
func TestPropertyDecompositionsValid(t *testing.T) {
	f := func(seed int64) bool {
		g, data, params := randomWorkload(seed)
		h, err := Build(g, data, params)
		if err != nil {
			return false
		}
		// Query the full chain.
		query := make(graph.Path, g.NumEdges())
		for i := range query {
			query[i] = graph.EdgeID(i)
		}
		if !g.ValidPath(query) {
			return false
		}
		depart := 8*3600 + 600.0
		ca, err := h.BuildCandidateArray(query, depart)
		if err != nil {
			return false
		}
		od := ca.CoarsestDecomposition(0)
		others := []*Decomposition{
			ca.UnitDecomposition(),
			ca.PairDecomposition(),
			ca.CoarsestDecomposition(2),
			ca.RandomDecomposition(rand.New(rand.NewSource(seed))),
		}
		if od.Validate(query) != nil || checkPrefixOverlaps(od) != nil {
			return false
		}
		for _, alt := range others {
			if alt.Validate(query) != nil {
				return false
			}
			if err := checkPrefixOverlaps(alt); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			for _, v := range alt.Vars {
				contained := false
				for _, w := range od.Vars {
					if w.Path.HasSubPath(v.Path) {
						contained = true
						break
					}
				}
				if !contained {
					return false
				}
			}
		}
		// A shard continuation decomposes its segment from the relayed
		// departure interval; its factors chain the same way.
		cut := 1 + rand.New(rand.NewSource(seed)).Intn(len(query)-1)
		first, err := (&Evaluator{H: h}).EvaluateSegment(context.Background(), SegmentInput{
			Path: query[:cut], Depart: depart, UI: TimeInterval{Lo: depart, Hi: depart},
		})
		if err != nil {
			return false
		}
		cont, _, err := h.buildCandidateArrayFrom(query[cut:], first.UI)
		if err != nil {
			return false
		}
		for _, de := range []*Decomposition{
			cont.CoarsestDecomposition(0), cont.CoarsestDecomposition(2),
			cont.PairDecomposition(), cont.UnitDecomposition(),
		} {
			if err := checkPrefixOverlaps(de); err != nil {
				t.Logf("seed %d continuation at %d: %v", seed, cut, err)
				return false
			}
		}
		// Every method yields a normalized distribution with plausible
		// support.
		for _, m := range []Method{MethodOD, MethodHP, MethodLB, MethodRD} {
			res, err := h.CostDistribution(query, depart, QueryOptions{Method: m, Seed: seed})
			if err != nil {
				return false
			}
			if math.Abs(res.Dist.CDF(math.Inf(1))-1) > 1e-9 {
				return false
			}
			if res.Dist.Min() < 0 || res.Dist.Mean() <= 0 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// PROPERTY: the chain evaluator is mean-consistent with the dense
// factorization on arbitrary workloads and decompositions.
func TestPropertyChainVsDense(t *testing.T) {
	f := func(seed int64) bool {
		g, data, params := randomWorkload(seed)
		params.MaxAccBuckets = 0
		params.MaxResultBuckets = 0
		h, err := Build(g, data, params)
		if err != nil {
			return false
		}
		n := g.NumEdges()
		if n > 8 {
			n = 8 // keep the dense grid tractable
		}
		query := make(graph.Path, n)
		for i := range query {
			query[i] = graph.EdgeID(i)
		}
		depart := 8*3600 + 600.0
		ca, err := h.BuildCandidateArray(query, depart)
		if err != nil {
			return false
		}
		for _, de := range []*Decomposition{
			ca.CoarsestDecomposition(0),
			ca.PairDecomposition(),
		} {
			chain, _, err := h.Evaluate(de, query)
			if err != nil {
				return false
			}
			dense, err := h.EvaluateDense(de, query)
			if err != nil {
				// The dense grid can exceed its size limit on unlucky
				// seeds; that is not a property violation.
				continue
			}
			if math.Abs(chain.Mean()-dense.Mean()) > 1e-6*(1+dense.Mean()) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 15}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// PROPERTY: shift-and-enlarge intervals are monotone along the query
// path for any workload and departure time.
func TestPropertySAEMonotone(t *testing.T) {
	f := func(seed int64, hourRaw float64) bool {
		g, data, params := randomWorkload(seed)
		h, err := Build(g, data, params)
		if err != nil {
			return false
		}
		hour := math.Mod(math.Abs(hourRaw), 24)
		query := make(graph.Path, g.NumEdges())
		for i := range query {
			query[i] = graph.EdgeID(i)
		}
		ca, err := h.BuildCandidateArray(query, hour*3600)
		if err != nil {
			return false
		}
		for k := 1; k < len(ca.UIs); k++ {
			if ca.UIs[k].Lo < ca.UIs[k-1].Lo-1e-9 {
				return false
			}
			if ca.UIs[k].Width() < ca.UIs[k-1].Width()-1e-9 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
