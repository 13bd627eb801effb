package pathcost

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gps"
)

// epochBase trains a system on the first `keep` trajectories of a
// synthesized workload and returns it with the held-out remainder —
// the raw material for incremental-vs-retrain comparisons.
func epochBase(t testing.TB, seed int64, trips, keep int) (*System, []*Matched, *Graph, Params) {
	t.Helper()
	params := DefaultParams()
	params.Beta = 15
	params.MaxRank = 4
	full, err := Synthesize(SynthesizeConfig{Preset: "test", Trips: trips, Seed: seed, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	data := full.Data()
	if keep >= data.Len() {
		t.Fatalf("keep %d >= collection size %d", keep, data.Len())
	}
	var base, held []*Matched
	for i := 0; i < data.Len(); i++ {
		if i < keep {
			base = append(base, data.Traj(i))
		} else {
			held = append(held, data.Traj(i))
		}
	}
	sys, err := NewSystem(full.Graph, gps.NewCollection(base, 0), params)
	if err != nil {
		t.Fatal(err)
	}
	return sys, held, full.Graph, params
}

// modelBytes serializes a system's model for byte-exact comparison.
func modelBytes(t testing.TB, s *System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The tentpole guarantee: folding held-out trajectories in through N
// random incremental epoch publishes (decay off) yields a model
// byte-identical to retraining from scratch on the concatenated data.
func TestEpochIncrementalMatchesFullRetrain(t *testing.T) {
	sys, held, g, params := epochBase(t, 101, 1200, 900)

	// Feed the held-out tail in randomly sized batches, in order (the
	// stream arrives in order; batch boundaries are what vary).
	rnd := rand.New(rand.NewSource(7))
	startSeq := sys.CurrentEpoch().Seq
	var publishes uint64
	for len(held) > 0 {
		n := 1 + rnd.Intn(len(held))
		st, err := sys.ApplyDeltas(held[:n])
		if err != nil {
			t.Fatalf("ApplyDeltas(%d): %v", n, err)
		}
		held = held[n:]
		publishes++
		if st.Seq != startSeq+publishes {
			t.Fatalf("epoch seq %d after %d publishes from %d", st.Seq, publishes, startSeq)
		}
		if st.LastTrajs != n {
			t.Fatalf("publish folded %d trajectories, staged %d", st.LastTrajs, n)
		}
	}

	// Reference: full retrain on the identical concatenated stream.
	fullData := sys.Data()
	trajs := make([]*Matched, fullData.Len())
	for i := range trajs {
		trajs[i] = fullData.Traj(i)
	}
	ref, err := NewSystem(g, gps.NewCollection(trajs, 0), params)
	if err != nil {
		t.Fatal(err)
	}

	got, want := modelBytes(t, sys), modelBytes(t, ref)
	if !bytes.Equal(got, want) {
		t.Fatalf("incremental model (%d bytes) differs from full retrain (%d bytes) after %d publishes",
			len(got), len(want), publishes)
	}
}

// Decay mode cannot be byte-identical by design; it must stay a valid
// probability model that absorbs the new mass, and untouched
// variables must be untouched (copy-on-write shares them by pointer).
func TestEpochDecayStaysNormalized(t *testing.T) {
	sys, held, _, _ := epochBase(t, 103, 1000, 800)
	sys.SetDecayHalflife(time.Hour)

	before := sys.CurrentEpoch().Hybrid
	if _, err := sys.ApplyDeltas(held); err != nil {
		t.Fatalf("decay ApplyDeltas: %v", err)
	}
	if sys.CurrentEpoch().Hybrid == before {
		t.Fatal("decay publish did not produce a new hybrid")
	}
	st := sys.Stats().Epoch
	if st.LastDecayFactor <= 0 || st.LastDecayFactor > 1 {
		t.Fatalf("decay factor %v out of (0, 1]", st.LastDecayFactor)
	}

	// Every queryable dense path still answers with a normalized
	// distribution.
	dense := sys.DensePaths(2, 8)
	if len(dense) == 0 {
		t.Fatal("no dense paths in workload")
	}
	for _, dp := range dense[:min(5, len(dense))] {
		lo, _ := sys.Params.IntervalBounds(dp.Interval)
		res, err := sys.PathDistribution(dp.Path, lo+1, OD)
		if err != nil {
			t.Fatalf("query after decay publish: %v", err)
		}
		var total float64
		for _, b := range res.Dist.Buckets() {
			total += b.Pr
		}
		if math.Abs(total-1) > 1e-6 {
			t.Fatalf("distribution total %v after decay publish", total)
		}
	}
}

// Queries must keep serving — and serve only consistent epochs —
// while publishes run. Run under -race: the epoch swap, the staged
// buffer, the memo views and the query cache all get hammered at
// once. Consistency check: a result obtained concurrently with
// publishes is always byte-identical to re-asking the epoch it was
// served from.
func TestEpochConcurrentQueriesDuringPublish(t *testing.T) {
	sys, held, _, _ := epochBase(t, 107, 1000, 600)
	sys.EnableQueryCache(512)
	sys.EnableConvMemo(1024)
	sys.EnableBatchPlanner(2)

	dense := sys.DensePaths(3, 10)
	if len(dense) == 0 {
		t.Skip("no dense paths in workload")
	}
	paths := dense[:min(8, len(dense))]

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var queries atomic.Int64
	errc := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(w)))
			for ctx.Err() == nil {
				dp := paths[rnd.Intn(len(paths))]
				lo, _ := sys.Params.IntervalBounds(dp.Interval)
				if _, err := sys.PathDistribution(dp.Path, lo+1, OD); err != nil {
					select {
					case errc <- err:
					default:
					}
					return
				}
				queries.Add(1)
			}
		}(w)
	}

	// Publisher: fold the held-out tail in small batches while the
	// query storm runs.
	for i := 0; i+20 <= len(held); i += 20 {
		if _, err := sys.ApplyDeltas(held[i : i+20]); err != nil {
			cancel()
			wg.Wait()
			t.Fatalf("publish %d: %v", i/20, err)
		}
	}
	cancel()
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatalf("query failed during publishing: %v", err)
	default:
	}
	if queries.Load() == 0 {
		t.Fatal("no queries completed during publishing")
	}
	if sys.CurrentEpoch().Seq < 2 {
		t.Fatalf("no epochs published (seq %d)", sys.CurrentEpoch().Seq)
	}
}

// Stale derived state must never cross an epoch boundary: with cache,
// memo and synopsis all hot, a query after a publish that touched the
// path must answer from the NEW model — byte-identical to a cold
// system retrained on the concatenated data — not from any cached
// artifact of the old epoch.
func TestEpochInvalidatesCachesAcrossPublish(t *testing.T) {
	sys, held, g, params := epochBase(t, 109, 1200, 900)
	sys.EnableQueryCache(512)
	sys.EnableConvMemo(1024)

	// A synopsis over a workload drawn from the dense paths, so the
	// store holds exactly the states a stale read would hit.
	dense := sys.DensePaths(3, 10)
	if len(dense) == 0 {
		t.Skip("no dense paths in workload")
	}
	var wl []WorkloadQuery
	for _, dp := range dense[:min(6, len(dense))] {
		lo, _ := sys.Params.IntervalBounds(dp.Interval)
		wl = append(wl, WorkloadQuery{Path: dp.Path, Depart: lo + 1})
	}
	if _, err := sys.BuildSynopsis(wl, SynopsisConfig{MaxEntries: 64}); err != nil {
		t.Fatalf("synopsis: %v", err)
	}

	// Warm every layer on the old epoch.
	for _, q := range wl {
		if _, err := sys.PathDistribution(q.Path, q.Depart, OD); err != nil {
			t.Fatalf("warm query: %v", err)
		}
	}

	if _, err := sys.ApplyDeltas(held); err != nil {
		t.Fatalf("publish: %v", err)
	}

	// Reference system, cold, on the concatenated data.
	fullData := sys.Data()
	trajs := make([]*Matched, fullData.Len())
	for i := range trajs {
		trajs[i] = fullData.Traj(i)
	}
	ref, err := NewSystem(g, gps.NewCollection(trajs, 0), params)
	if err != nil {
		t.Fatal(err)
	}

	for _, q := range wl {
		got, err := sys.PathDistribution(q.Path, q.Depart, OD)
		if err != nil {
			t.Fatalf("post-publish query: %v", err)
		}
		want, err := ref.PathDistribution(q.Path, q.Depart, OD)
		if err != nil {
			t.Fatalf("reference query: %v", err)
		}
		gb, wb := got.Dist.Buckets(), want.Dist.Buckets()
		if len(gb) != len(wb) {
			t.Fatalf("path %v: %d buckets vs reference %d — stale state served", q.Path, len(gb), len(wb))
		}
		for i := range gb {
			if gb[i] != wb[i] {
				t.Fatalf("path %v bucket %d: %+v vs reference %+v — stale state served",
					q.Path, i, gb[i], wb[i])
			}
		}
	}
}

// Staging validates; publish restores the staged batch on failure.
func TestStageTrajectoriesRejectsInvalid(t *testing.T) {
	sys, held, _, _ := epochBase(t, 113, 600, 500)
	bad := &Matched{ID: 999, Path: Path{EdgeID(0), EdgeID(0)}, Depart: 0, EdgeCosts: []float64{1, 1}}
	accepted, rejected := sys.StageTrajectories([]*Matched{held[0], nil, bad})
	if accepted != 1 || rejected != 2 {
		t.Fatalf("accepted %d, rejected %d; want 1, 2", accepted, rejected)
	}
	if sys.StagedCount() != 1 {
		t.Fatalf("staged %d, want 1", sys.StagedCount())
	}
	if _, err := sys.PublishEpoch(); err != nil {
		t.Fatalf("publish: %v", err)
	}
	if sys.StagedCount() != 0 {
		t.Fatalf("staged %d after publish, want 0", sys.StagedCount())
	}
}

// A publish with nothing staged must be a cheap no-op that does not
// advance the epoch.
func TestPublishEpochEmptyNoOp(t *testing.T) {
	sys, _, _, _ := epochBase(t, 127, 600, 500)
	seq := sys.CurrentEpoch().Seq
	st, err := sys.PublishEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if st.Seq != seq || sys.CurrentEpoch().Seq != seq {
		t.Fatalf("empty publish moved epoch %d → %d", seq, sys.CurrentEpoch().Seq)
	}
}

// TestBuildSynopsisRacesPublish pins BuildSynopsis against a publish
// already in flight: the store must be built on the model it ends up
// serving. A publish is held open inside its build (buildProbe) while
// BuildSynopsis starts; once both finish, every attached entry must
// byte-equal store-free evaluation on the served epoch. The staged
// delta traverses the workload's paths, so the two epochs' models
// differ on entries the synopsis holds.
func TestBuildSynopsisRacesPublish(t *testing.T) {
	sys, held, _, _ := epochBase(t, 131, 1200, 700)
	dense := sys.DensePaths(3, 5)
	if len(dense) == 0 {
		t.Skip("no dense paths in workload")
	}
	var wl []WorkloadQuery
	covered := map[EdgeID]bool{}
	for _, dp := range dense[:min(8, len(dense))] {
		lo, _ := sys.Params.IntervalBounds(dp.Interval)
		wl = append(wl, WorkloadQuery{Path: dp.Path, Depart: lo + 1})
		for _, e := range dp.Path {
			covered[e] = true
		}
	}
	var delta []*Matched
	for _, m := range held {
		for _, e := range m.Path {
			if covered[e] {
				delta = append(delta, m)
				break
			}
		}
	}
	if len(delta) == 0 {
		t.Skip("no held-out trajectory crosses the workload")
	}
	sys.StageTrajectories(delta)
	old := sys.CurrentEpoch()

	entered, release := make(chan struct{}), make(chan struct{})
	sys.buildProbe = func() error {
		close(entered)
		<-release
		return nil
	}
	published := make(chan error, 1)
	go func() {
		_, err := sys.PublishEpoch()
		published <- err
	}()
	<-entered
	built := make(chan error, 1)
	go func() {
		_, err := sys.BuildSynopsis(wl, SynopsisConfig{MaxEntries: 64})
		built <- err
	}()
	// Give an unsynchronized build ample time to read the old model
	// before the publish swaps in the new one.
	time.Sleep(50 * time.Millisecond)
	close(release)
	if err := <-published; err != nil {
		t.Fatalf("publish: %v", err)
	}
	if err := <-built; err != nil {
		t.Fatalf("synopsis: %v", err)
	}
	sys.buildProbe = nil

	ep := sys.CurrentEpoch()
	syn := ep.Synopsis()
	if ep.Seq != old.Seq+1 || syn == nil {
		t.Fatalf("served epoch %d (was %d), synopsis attached %v", ep.Seq, old.Seq, syn != nil)
	}
	ctx := context.Background()
	opt := syn.Options()
	served := &core.Evaluator{H: ep.Hybrid}
	stale := &core.Evaluator{H: old.Hybrid}
	checked, moved := 0, 0
	for _, q := range wl {
		for n := 2; n <= len(q.Path); n++ {
			p := q.Path[:n]
			st, ok := syn.Lookup(p, q.Depart, opt)
			if !ok {
				continue
			}
			want, err := served.State(ctx, p, q.Depart, opt)
			if err != nil {
				t.Fatalf("synopsis holds %v, which the served model cannot answer: %v", p, err)
			}
			if !identicalPlanHist(st.Dist(), want.Dist()) {
				t.Fatalf("synopsis entry %v was not built on the served epoch %d", p, ep.Seq)
			}
			checked++
			if before, err := stale.State(ctx, p, q.Depart, opt); err != nil || !identicalPlanHist(before.Dist(), want.Dist()) {
				moved++
			}
		}
	}
	if checked == 0 || moved == 0 {
		t.Fatalf("%d entries checked, %d differ between epochs: the delta does not exercise the race", checked, moved)
	}
}
