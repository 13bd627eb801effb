package core

import (
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/hist"
)

// PathState supports the "path + another edge" exploration pattern of
// stochastic routing algorithms (Section 4.3): extending a path by one
// edge reuses the chain evaluation of the existing path instead of
// recomputing it, which is the paper's "incremental property".
//
// A PathState is immutable after construction and safe to share
// between goroutines (the convolution memo hands one state to many
// concurrent queries); the lazily derived marginal is guarded by a
// sync.Once and is a deterministic function of the state.
type PathState struct {
	h    *HybridGraph
	path graph.Path
	t    float64
	opt  QueryOptions

	de *Decomposition
	// inter[i] is the chain state after factor i was folded to its
	// overlap with factor i+1; preFold is the state after the last
	// factor's multiplication, before any folding (all its dims open),
	// so a future factor can still condition on any suffix edge.
	inter   []*chainState
	preFold *chainState

	// dist is the flattened cost marginal of the final chain state,
	// derived on first use: a memoized intermediate prefix that is
	// only ever extended never pays for a marginal nobody reads.
	distOnce sync.Once
	dist     *hist.Histogram
	distErr  error
}

// Dist returns the cost distribution of the state's path, deriving it
// on first call (nil in the never-expected case that marginalization
// fails; DistErr surfaces the error).
func (s *PathState) Dist() *hist.Histogram {
	d, _ := s.DistErr()
	return d
}

// DistErr returns the cost distribution of the state's path,
// flattening the final chain state on first call.
func (s *PathState) DistErr() (*hist.Histogram, error) {
	s.distOnce.Do(func() {
		s.dist, s.distErr = s.inter[len(s.inter)-1].m.SumHistogram(s.h.Params.MaxResultBuckets)
	})
	return s.dist, s.distErr
}

// Decomp returns the decomposition behind the state's distribution.
func (s *PathState) Decomp() *Decomposition { return s.de }

// Path returns the state's path (callers must not modify it).
func (s *PathState) Path() graph.Path { return s.path }

// Depart returns the departure time the state was built for.
func (s *PathState) Depart() float64 { return s.t }

// startPath begins incremental evaluation with a single-edge path.
// opt.Method must already be resolved (see QueryOptions.withDefaults).
func (h *HybridGraph) startPath(e graph.EdgeID, t float64, opt QueryOptions) (*PathState, error) {
	s := &PathState{h: h, path: graph.Path{e}, t: t, opt: opt}
	if err := s.recompute(nil); err != nil {
		return nil, err
	}
	return s, nil
}

// extendPath returns a new state for the path extended by edge e,
// reusing as much of the previous chain evaluation as the new coarsest
// decomposition allows. s remains valid (DFS keeps parent states alive
// across siblings).
func (h *HybridGraph) extendPath(s *PathState, e graph.EdgeID) (*PathState, error) {
	np := make(graph.Path, len(s.path)+1)
	copy(np, s.path)
	np[len(s.path)] = e
	if !h.G.ValidPath(np) {
		return nil, fmt.Errorf("core: extension %v is not a valid path", np)
	}
	ns := &PathState{h: h, path: np, t: s.t, opt: s.opt}
	if err := ns.recompute(s); err != nil {
		return nil, err
	}
	return ns, nil
}

// recompute evaluates the state's path, reusing prev's chain prefix
// when the decompositions share one.
func (s *PathState) recompute(prev *PathState) error {
	h := s.h
	ca, err := h.BuildCandidateArray(s.path, s.t)
	if err != nil {
		return err
	}
	defer ca.Release()
	switch s.opt.Method {
	case MethodOD:
		s.de = ca.CoarsestDecomposition(s.opt.RankCap)
	case MethodHP:
		s.de = ca.PairDecomposition()
	case MethodLB:
		s.de = ca.UnitDecomposition()
	default:
		return fmt.Errorf("core: method %q does not support incremental evaluation", s.opt.Method)
	}

	// Longest shared factor prefix with prev.
	shared := 0
	if prev != nil && prev.de != nil {
		max := len(prev.de.Vars)
		if len(s.de.Vars) < max {
			max = len(s.de.Vars)
		}
		for shared < max &&
			prev.de.Vars[shared] == s.de.Vars[shared] &&
			prev.de.Pos[shared] == s.de.Pos[shared] {
			shared++
		}
	}

	var st EvalStats
	var state *chainState
	from := 0
	if shared > 0 && prev != nil {
		// Resume right after the last shared factor. Its fold target
		// (the overlap with the *new* next factor) may differ from what
		// prev folded to, so refold from the stored states.
		i := shared - 1
		keep := overlapWithNext(s.de, i)
		switch {
		case i == len(prev.de.Vars)-1 && prev.preFold != nil:
			state, err = prev.preFold.foldTo(keep, h.Params.MaxAccBuckets)
		case i < len(prev.inter) && sameInts(keep, prev.inter[i].open):
			state, err = prev.inter[i], nil
		default:
			state, err = nil, nil
			shared = 0
		}
		if err != nil {
			return err
		}
		if state != nil {
			from = shared
		}
	}

	s.inter = make([]*chainState, len(s.de.Vars))
	if prev != nil && from > 0 {
		copy(s.inter, prev.inter[:from-1])
		s.inter[from-1] = state
	}
	for i := from; i < len(s.de.Vars); i++ {
		fm, err := asMulti(s.de.Vars[i])
		if err != nil {
			return err
		}
		positions := factorPositions(s.de, i)
		if state == nil {
			state, err = initialState(fm, positions)
		} else {
			state, err = state.multiply(fm, positions, &st)
		}
		if err != nil {
			return err
		}
		if i == len(s.de.Vars)-1 {
			s.preFold = state
		}
		state, err = state.foldTo(overlapWithNext(s.de, i), h.Params.MaxAccBuckets)
		if err != nil {
			return err
		}
		s.inter[i] = state
	}
	if from == len(s.de.Vars) && prev != nil {
		// The whole decomposition was shared (possible when the new
		// edge extends the last factor's path without changing the
		// decomposition — cannot happen by construction, but guard).
		s.preFold = prev.preFold
	}
	// The cost marginal of s.inter[last] is derived lazily in DistErr.
	return nil
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
