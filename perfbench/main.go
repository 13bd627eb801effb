// Command perfbench is the repository's benchmark. It generates a
// workload's inputs from a seed, boots the serving tier in-process with
// pathcostd's defaults, drives it over loopback HTTP the way pathcostd's
// users do, checks every answer, and prints the workload's metrics.
//
//	bash perfbench/run.sh --workload cold --seed 3 --seconds 5 --trace 0
//
// Workloads: hot (open loop over warmed, cache-resident keys), cold
// (closed loop over distinct held-out sub-paths), fleet (closed-loop
// batches through a 3-way sharded coordinator) and ingest (open-loop
// raw-GPS ingest and epoch publishes beside the hot read stream).
// --trace 0 reports the end-to-end metrics; --trace 1 re-runs the
// workload with spans around every layer call and reports per-layer
// metrics instead. The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; a wrong or failed
// answer makes the run exit 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "hot, cold, fleet or ingest")
	seed := fs.Int64("seed", 1, "workload seed: every input is generated from it")
	seconds := fs.Float64("seconds", 5, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for the WAL and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, err := run(context.Background(), runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		size: benchSize, scratch: *out, log: stdout,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
