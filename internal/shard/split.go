package shard

import (
	"bytes"
	"fmt"
	"io"

	pathcost "repro"
	"repro/internal/core"
)

// SplitResult is a model split by region: Shards[r] serves region r,
// and Union is the reference model a single process would serve — the
// disjoint union of every shard's variables. Cross-region variables
// appear in neither: a variable whose path crosses a region cut
// cannot live on any one shard, so the sharded deployment's promise
// is byte-identity with a single process serving Union, not with the
// unsplit original. The splitter reports how many variables the cuts
// cost so operators can judge a partition before deploying it.
type SplitResult struct {
	Shards []*pathcost.System
	Union  *pathcost.System
	// Dropped counts variables whose path crossed a region cut.
	Dropped int
	// DroppedSynopsis counts synopsis entries lost the same way.
	DroppedSynopsis int
}

// SplitModel cuts sys's trained model along part. Each output system
// is built by serializing the filtered model + synopsis and loading
// it back — the exact loader path a shard daemon takes with a model
// file — so a split-in-process system and a shard booted from a
// written file behave identically, byte for byte.
func SplitModel(sys *pathcost.System, part *Partition) (*SplitResult, error) {
	g := sys.Graph
	if len(part.Vertex) != g.NumVertices() {
		return nil, fmt.Errorf("shard: partition is for %d vertices, network has %d", len(part.Vertex), g.NumVertices())
	}
	// One epoch snapshot: the model and its synopsis must agree even if
	// a publish lands mid-split.
	ep := sys.CurrentEpoch()
	h, syn := ep.Hybrid, ep.Synopsis()

	total := 0
	h.ForEachVariable(func(*core.Variable) { total++ })

	res := &SplitResult{Shards: make([]*pathcost.System, part.K)}
	kept := 0
	for r := 0; r < part.K; r++ {
		region := r
		fh := h.FilterVariables(func(v *core.Variable) bool {
			vr, ok := part.PathInRegion(g, v.Path)
			return ok && vr == region
		})
		var fs *core.SynopsisStore
		if syn != nil {
			var err error
			fs, err = syn.Filter(func(p pathcost.Path) bool {
				vr, ok := part.PathInRegion(g, p)
				return ok && vr == region
			})
			if err != nil {
				return nil, fmt.Errorf("shard: filtering synopsis for region %d: %w", r, err)
			}
		}
		shardSys, err := roundTrip(g, fh, fs)
		if err != nil {
			return nil, fmt.Errorf("shard: building region %d: %w", r, err)
		}
		res.Shards[r] = shardSys
		shardSys.CurrentEpoch().Hybrid.ForEachVariable(func(*core.Variable) { kept++ })
	}

	uh := h.FilterVariables(func(v *core.Variable) bool {
		_, ok := part.PathInRegion(g, v.Path)
		return ok
	})
	var us *core.SynopsisStore
	if syn != nil {
		before := syn.Len()
		var err error
		us, err = syn.Filter(func(p pathcost.Path) bool {
			_, ok := part.PathInRegion(g, p)
			return ok
		})
		if err != nil {
			return nil, fmt.Errorf("shard: filtering union synopsis: %w", err)
		}
		res.DroppedSynopsis = before - us.Len()
	}
	union, err := roundTrip(g, uh, us)
	if err != nil {
		return nil, fmt.Errorf("shard: building union model: %w", err)
	}
	res.Union = union
	res.Dropped = total - kept
	return res, nil
}

// WriteShardModel writes one split system's model file, loadable by
// pathcostd -model.
func WriteShardModel(w io.Writer, sys *pathcost.System) error { return sys.SaveModel(w) }

// roundTrip serializes a filtered model and loads it back through the
// standard loader, yielding a fresh System with loader-identical
// in-memory state.
func roundTrip(g *pathcost.Graph, h *core.HybridGraph, syn *core.SynopsisStore) (*pathcost.System, error) {
	var buf bytes.Buffer
	if err := h.WriteModelSynopsis(&buf, syn); err != nil {
		return nil, err
	}
	return pathcost.LoadSystem(g, nil, &buf)
}
