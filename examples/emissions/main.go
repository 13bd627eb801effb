// Emissions: the paper's second cost domain. The same hybrid-graph
// machinery estimates greenhouse-gas emission distributions of paths:
// distributions are over grams of CO2-equivalent, while temporal
// relevance still follows travel time.
//
// Run with:
//
//	go run ./examples/emissions
package main

import (
	"fmt"
	"log"

	pathcost "repro"
)

func main() {
	// Emissions distributions are coarser than second-level travel
	// times; use a 5-gram lattice.
	params := pathcost.DefaultParams()
	params.Domain = pathcost.DomainEmissions
	params.Resolution = 5

	sys, err := pathcost.Synthesize(pathcost.SynthesizeConfig{
		Preset:        "test",
		Trips:         6000,
		Seed:          5,
		Params:        params,
		WithEmissions: true, // simulate the GHG cost of every edge
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hybrid graph over the %s domain: %d variables\n",
		params.Domain, sys.Stats().Model.TotalVariables())

	dense := sys.DensePaths(4, 20)
	if len(dense) == 0 {
		log.Fatal("no dense paths; increase Trips")
	}
	q := dense[0]
	lo, _ := sys.Params.IntervalBounds(q.Interval)

	res, err := sys.PathDistribution(q.Path, lo+60, pathcost.OD)
	if err != nil {
		log.Fatal(err)
	}
	d := res.Dist
	fmt.Printf("\npath %v at %02d:%02d\n", q.Path, int(lo)/3600, int(lo)/60%60)
	fmt.Printf("GHG emissions: mean %.0fg | p10 %.0fg | p90 %.0fg\n",
		d.Mean(), d.Quantile(0.1), d.Quantile(0.9))

	// Emissions follow a U-shaped speed curve (minimum near 65 km/h),
	// so the time-of-day effect depends on the road class: stop-and-go
	// on city streets emits more, while slowing a 110 km/h motorway
	// down can emit *less*. Compare rush hour against free-flow night.
	night, err := sys.PathDistribution(q.Path, 3*3600, pathcost.OD)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("same path at 03:00:  mean %.0fg (night free-flow)\n", night.Dist.Mean())
	switch {
	case d.Mean() > night.Dist.Mean()*1.02:
		fmt.Println("→ rush hour emits more here: congestion pushes speeds below the efficient range.")
	case d.Mean() < night.Dist.Mean()*0.98:
		fmt.Println("→ rush hour emits less here: these are fast roads, and free-flow speed is beyond the efficient range of the U-shaped emission curve.")
	default:
		fmt.Println("→ both regimes emit about the same on this path.")
	}
}
