package pathcost

// Batch-planner acceptance benchmarks: a prefix-heavy 64-query batch
// answered independently (every query pays its full chain of
// convolutions) versus planned (the shared prefix trie convolves each
// distinct sub-path once). Both sides run on the same bounded worker
// pool, so the measured gap is the sharing, not parallelism. Run with:
//
//	go test -bench 'BenchmarkBatch' -benchmem .

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

var (
	planBenchOnce    sync.Once
	planBenchSys     *System
	planBenchQueries []PlanQuery
	planBenchErr     error
)

// planBenchSetup trains the system and samples the 64-query batch:
// three 12-edge trunks, each contributing every prefix, padded with
// duplicates — the shape a routing frontier or a commuter fleet
// produces.
func planBenchSetup(b *testing.B) (*System, []PlanQuery) {
	b.Helper()
	planBenchOnce.Do(func() {
		params := DefaultParams()
		params.Beta = 20
		params.MaxRank = 4
		planBenchSys, planBenchErr = Synthesize(SynthesizeConfig{
			Preset: "test", Trips: 6000, Seed: 9, Params: params,
		})
		if planBenchErr != nil {
			return
		}
		rnd := rand.New(rand.NewSource(7))
		depart := 8*3600 + 60.0
		var queries []PlanQuery
		for len(queries) < 33 {
			trunk, err := planBenchSys.RandomQueryPath(12, rnd.Intn)
			if err != nil {
				planBenchErr = err
				return
			}
			for n := 2; n <= len(trunk); n++ {
				queries = append(queries, PlanQuery{Path: trunk[:n], Depart: depart})
			}
		}
		for i := 0; len(queries) < 64; i++ {
			queries = append(queries, queries[i*3%33])
		}
		planBenchQueries = queries[:64]
	})
	if planBenchErr != nil {
		b.Fatal(planBenchErr)
	}
	return planBenchSys, planBenchQueries
}

// BenchmarkBatchIndependent is the baseline: the batch's queries
// evaluated independently across a bounded pool with no cache, memo
// or planner — every entry re-convolves its whole prefix chain.
func BenchmarkBatchIndependent(b *testing.B) {
	sys, queries := planBenchSetup(b)
	sys.EnableQueryCache(0)
	sys.EnableConvMemo(0)
	workers := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for _, q := range queries {
			wg.Add(1)
			go func(q PlanQuery) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				if _, err := sys.CurrentEpoch().Hybrid.CostDistribution(q.Path, q.Depart, q.Opt); err != nil {
					b.Error(err)
				}
			}(q)
		}
		wg.Wait()
	}
}

// BenchmarkBatchPlanned answers the same batch through the planner:
// one prefix trie, each shared sub-path convolved once, residual
// extensions scheduled in dependency order on the same pool size.
func BenchmarkBatchPlanned(b *testing.B) {
	sys, queries := planBenchSetup(b)
	sys.EnableQueryCache(0)
	sys.EnableConvMemo(0)
	sys.EnableBatchPlanner(runtime.GOMAXPROCS(0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _ := sys.PlanDistributions(context.Background(), queries, nil, nil)
		for j := range out {
			if out[j].Err != nil {
				b.Fatal(out[j].Err)
			}
		}
	}
}
