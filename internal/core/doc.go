// Package core implements the paper's central contribution: the
// hybrid graph and its query machinery.
//
// Paper-section map:
//
//   - Section 2.1 (problem setting): consumed via package gps — core
//     reads (path, departure, per-edge cost) observations from a
//     gps.Collection.
//   - Section 2.2: GroundTruth, the accuracy-optimal baseline that
//     needs ≥ β qualifying trajectories and therefore suffers the
//     sparseness problem.
//   - Section 2.3: MethodLB, the legacy independent-edge convolution
//     baseline with progressively updated arrival intervals.
//   - Section 3 (hybrid graph G = (V, E, W_P)): Build instantiates
//     rank-1 variables per edge and α-interval (Section 3.1, with the
//     speed-limit fallback for uncovered edges) and grows higher-rank
//     joint variables bottom-up wherever ≥ β qualified trajectories
//     support them (Section 3.2). Params carries α, β and the
//     implementation bounds; Params.Workers shards instantiation
//     across a goroutine pool with results identical to a serial
//     build (ForEachVariable and model serialization are
//     deterministic, so serial and parallel models are byte-equal).
//   - Section 4 (queries): BuildCandidateArray applies the spatial
//     and temporal (shift-and-enlarge, Eq. 3) relevance tests;
//     CoarsestDecomposition is Algorithm 1; Evaluate computes
//     Equation 2 by chain multiplication followed by the Section 4.2
//     marginalization. Theorems 1–4 are exercised in theorem_test.go.
//   - Section 5 (empirical study): the estimator family — MethodOD
//     (and its rank-capped OD-x variants), MethodRD, MethodHP,
//     MethodLB — plus BuildStats, EvalStats and Timing, which
//     instrument the figures.
//
// Beyond the paper, PathState implements the incremental property of
// Section 4.3 ("path + another edge" reuses the chain evaluation of
// the path). Evaluator carries the hybrid graph and two optional
// stores of chain states keyed by the exact departure time — the
// offline SynopsisStore and the runtime ConvMemo — and its three
// methods run the whole pipeline through one synopsis → memo →
// compute probe: Distribution (Algorithm 1, Equation 2 and the
// Section 4.2 marginal for a path), State (the chain state of a path)
// and Extend (the Section 4.3 "path + one edge" step). Routing
// searches, batch-planner nodes, shard segments and repeated
// distribution queries thereby reuse one another's prefixes with
// byte-identical results. The evaluation entry points are exactly
// CostDistribution, Evaluate, EvaluateDense, the Evaluator's three
// methods and Evaluator.EvaluateSegment.
//
// Query evaluation is bit-deterministic by construction: float
// accumulation over hyper-buckets always runs in sorted cell order,
// and temporal-relevance ties break toward the earliest interval —
// never map iteration order.
//
// A trained HybridGraph is safe for concurrent readers; training
// itself is single-writer.
package core
