// Quickstart: build a synthetic city, train the hybrid graph, and
// estimate the travel-time distribution of one path at rush hour.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	pathcost "repro"
)

func main() {
	// 1. Build a system: a synthetic city with a simulated GPS fleet.
	//    With real data you would call pathcost.NewSystem with your own
	//    road network and map-matched trajectories instead.
	sys, err := pathcost.Synthesize(pathcost.SynthesizeConfig{
		Preset: "test", // 12×12 intersections; try "small" or "aalborg"
		Trips:  6000,
		Seed:   1,
	})
	if err != nil {
		log.Fatal(err)
	}
	st := sys.Stats().Model
	fmt.Printf("trained hybrid graph: %d variables (ranks %v)\n",
		st.TotalVariables(), st.VariablesByRank)

	// 2. Pick a query path that real trajectories actually travel
	//    (DensePaths lists the busiest sub-paths per time interval).
	dense := sys.DensePaths(4, 20)
	if len(dense) == 0 {
		log.Fatal("no dense paths; increase Trips")
	}
	q := dense[0]
	lo, _ := sys.Params.IntervalBounds(q.Interval)
	fmt.Printf("query: path %v, departing %02d:%02d (%d supporting trajectories)\n",
		q.Path, int(lo)/3600, int(lo)/60%60, q.Count)

	// 3. Estimate the travel-time distribution with the paper's OD
	//    method and print what a mean-based estimator would hide.
	res, err := sys.PathDistribution(q.Path, lo+60, pathcost.OD)
	if err != nil {
		log.Fatal(err)
	}
	d := res.Dist
	fmt.Printf("mean %.0fs | p10 %.0fs | median %.0fs | p90 %.0fs\n",
		d.Mean(), d.Quantile(0.1), d.Quantile(0.5), d.Quantile(0.9))
	budget := d.Mean() * 1.2
	fmt.Printf("P(arrive within %.0fs) = %.2f\n", budget, d.ProbWithin(budget))
	fmt.Printf("decomposition: %d sub-paths, max rank %d, %.2fms\n",
		res.Decomp.Cardinality(), res.Decomp.MaxRank(),
		float64(res.Timing.Total().Microseconds())/1000)
}
