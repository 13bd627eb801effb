// Package routing implements the DFS-based stochastic routing
// algorithm the paper integrates its estimator into (Section 4.3 and
// Figure 18): a probabilistic budget query in the style of Hua and
// Pei [10] that searches for the path maximizing the probability of
// arriving within a travel-time budget, pruning candidates whose
// optimistic arrival probability cannot beat the incumbent.
//
// The path-cost estimator is pluggable (OD / HP / LB — any core
// method), which is exactly how the paper compares LB-DFS, HP-DFS and
// OD-DFS; Options.Incremental reuses the chain-evaluation state along
// the DFS so each edge extension costs one factor multiplication
// instead of a full re-evaluation. topk.go generalizes the search to
// probabilistic top-k path queries and skyline.go to stochastic
// skyline queries.
//
// A Router evaluates every DFS expansion through one core.Evaluator:
// with a memo (core.ConvMemo) or synopsis attached, prefix chain
// states are reused across queries, so repeated or overlapping
// searches — including the entries of one server batch — extend a
// candidate by one edge with a single lookup when the prefix was seen
// before. Store-backed results are byte-identical to store-free ones.
package routing
