package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/graph"
)

// Evaluator answers queries against one hybrid graph through two
// optional reuse stores: the offline SynopsisStore (selected at
// training time, persisted with the model) and the runtime ConvMemo
// (a prefix-keyed LRU filled as queries run). Every incremental
// evaluation — single queries, batch-planner nodes, routing DFS
// expansions, first shard segments and synopsis (re)builds — goes
// through one probe: the synopsis first (a hit costs no convolution
// and no LRU traffic), then the memo, else one chain step whose result
// the memo keeps for later queries.
//
// Both stores key on the exact (path, departure, method, rank cap)
// identity and hold states built by the same chain operations, so an
// answer is byte-identical with both, either or neither store. Either
// store may be nil; with both nil, and for methods without an
// incremental evaluator (RD), Distribution runs the one-shot
// evaluator CostDistribution runs.
//
// An Evaluator is a plain value: share it freely, and build a new one
// to attach or detach a store.
type Evaluator struct {
	H    *HybridGraph
	Syn  *SynopsisStore
	Memo *ConvMemo
}

// reuses reports whether queries under method m consult the stores.
func (ev *Evaluator) reuses(m Method) bool {
	return (ev.Syn != nil || ev.Memo != nil) && memoizable(m)
}

// Distribution estimates the travel cost distribution of path p
// departing at t (Section 4), resuming from the deepest prefix state
// either store holds. ctx bounds the evaluation: it is checked before
// every chain step, and a cancelled or expired ctx returns ctx.Err().
// ctx is never stored — PathStates land in the stores and outlive the
// request — so one caller's deadline cannot poison later queries.
//
// Timing reflects only work this call did: a deep prefix hit reports
// a near-zero JC, which is the point.
func (ev *Evaluator) Distribution(ctx context.Context, p graph.Path, t float64, opt QueryOptions) (*QueryResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	if !ev.reuses(opt.Method) {
		return ev.H.costDistribution(ctx, p, t, opt)
	}
	t0 := time.Now()
	st, err := ev.State(ctx, p, t, opt)
	if err != nil {
		return nil, err
	}
	res, err := ev.H.stateResult(st)
	if err != nil {
		return nil, err
	}
	res.Timing = Timing{JC: time.Since(t0)}
	return res, nil
}

// State evaluates path p departing at t to its chain state, resuming
// from the deepest prefix either store holds and offering every state
// derived past it to the memo, so later queries resume deeper still.
// One call counts one hit or miss per store it consulted, however deep
// the prefix scan went. ctx is checked before each derived edge.
func (ev *Evaluator) State(ctx context.Context, p graph.Path, t float64, opt QueryOptions) (*PathState, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("core: cannot evaluate an empty path")
	}
	opt = opt.withDefaults()
	st, base, _ := ev.probe(p, 1, t, opt)
	for n := base + 1; n <= len(p); n++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		mkey := ""
		if ev.Memo != nil {
			mkey = ev.Memo.key(p[:n].Key(), t, opt)
		}
		var err error
		if st, err = ev.derive(st, p[n-1], t, opt, mkey); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// Extend returns the state of parent's path extended by edge e — the
// "path + one edge" step of Section 4.3 — or, with a nil parent, the
// state of the single-edge path e departing at t under opt. A non-nil
// parent carries its own departure and options, and t and opt are
// ignored. parent stays valid: a DFS extends one parent along many
// siblings.
func (ev *Evaluator) Extend(parent *PathState, e graph.EdgeID, t float64, opt QueryOptions) (*PathState, error) {
	st, _, err := ev.extend(parent, e, t, opt)
	return st, err
}

// extend is Extend reporting whether a store answered (no chain step
// ran) — the planner counts probe hits and convolutions apart.
func (ev *Evaluator) extend(parent *PathState, e graph.EdgeID, t float64, opt QueryOptions) (*PathState, bool, error) {
	var prefix graph.Path
	if parent == nil {
		opt = opt.withDefaults()
	} else {
		prefix, t, opt = parent.path, parent.t, parent.opt
	}
	mkey := ""
	if ev.reuses(opt.Method) {
		p := make(graph.Path, len(prefix)+1)
		copy(p, prefix)
		p[len(prefix)] = e
		st, n, key := ev.probe(p, len(p), t, opt)
		if n > 0 {
			return st, true, nil
		}
		mkey = key
	}
	st, err := ev.derive(parent, e, t, opt, mkey)
	return st, false, err
}

// probe is the one synopsis → memo lookup. It returns the state of the
// longest prefix p[:n] with minDepth ≤ n ≤ len(p) that either store
// holds, and n (0 when neither holds one). At equal depth the synopsis
// wins: no LRU traffic, and the answer is identical. It also returns
// p's own memo key ("" without a memo), so a caller deriving p after a
// miss stores the state without rebuilding the key.
//
// One probe counts one synopsis hit or miss, and — unless the synopsis
// answered — one memo hit or miss: the scan Peeks and Gets only the
// committed memo base (a concurrent eviction between the two costs a
// stats blip, never a wrong base). The stores key differently on
// purpose: a synopsis is rebuilt per epoch, so its keys carry no epoch
// tag, while the memo may be an epoch-scoped view of an LRU shared
// across epochs.
func (ev *Evaluator) probe(p graph.Path, minDepth int, t float64, opt QueryOptions) (*PathState, int, string) {
	if !ev.reuses(opt.Method) {
		return nil, 0, ""
	}
	syn, m := ev.Syn, ev.Memo
	var st *PathState
	fullKey := ""
	hitSyn := false
	n := len(p)
	for ; n >= minDepth; n-- {
		key := memoKey(p[:n].Key(), t, opt)
		if syn != nil {
			if st, hitSyn = syn.entries[key]; hitSyn {
				break
			}
		}
		if m != nil {
			mkey := m.prefix + key
			if n == len(p) {
				fullKey = mkey
			}
			if s, ok := m.lru.Peek(mkey); ok {
				st = s
				m.lru.Get(mkey)
				break
			}
		}
	}
	if syn != nil {
		if hitSyn {
			syn.hits.Add(1)
		} else {
			syn.misses.Add(1)
		}
	}
	if st == nil {
		if m != nil {
			m.lru.Get(fullKey) // count the miss
		}
		return nil, 0, fullKey
	}
	return st, n, fullKey
}

// derive computes the state of parent's path extended by e (nil
// parent: the single-edge path e) and, given a memo key, offers the
// state to the memo under it.
func (ev *Evaluator) derive(parent *PathState, e graph.EdgeID, t float64, opt QueryOptions, mkey string) (*PathState, error) {
	var st *PathState
	var err error
	if parent == nil {
		st, err = ev.H.startPath(e, t, opt)
	} else {
		st, err = ev.H.extendPath(parent, e)
	}
	if err != nil {
		return nil, err
	}
	if mkey != "" {
		ev.Memo.lru.Put(mkey, st)
	}
	return st, nil
}

// stateResult converts a fully evaluated chain state into a
// QueryResult, mirroring Evaluate's single-factor shortcut. It is the
// one result-assembly path shared by Distribution and the batch
// planner, which is what makes planned, stored and one-shot answers
// byte-identical by construction. Timing is left zero for the caller
// to fill.
func (h *HybridGraph) stateResult(st *PathState) (*QueryResult, error) {
	de := st.de
	res := &QueryResult{
		Decomp: de,
		Stats:  EvalStats{Factors: len(de.Vars)},
	}
	if len(de.Vars) == 1 {
		// Single-factor parity with Evaluate, which returns the
		// factor's own sum distribution without running a chain.
		v := de.Vars[0]
		if v.Hist != nil {
			res.Dist = v.Hist
		} else {
			out, err := v.Joint.SumHistogram(h.Params.MaxResultBuckets)
			if err != nil {
				return nil, err
			}
			res.Dist = out
		}
	} else {
		dist, err := st.DistErr()
		if err != nil {
			return nil, err
		}
		res.Dist = dist
	}
	res.Stats.ResultBuckets = res.Dist.NumBuckets()
	return res, nil
}
