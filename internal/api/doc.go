// Package api is the pathcost HTTP API shared by the single-process
// server (internal/server) and the sharded-serving coordinator
// (internal/shard).
//
// It holds the JSON wire types and request-validation helpers.
// Keeping one set of shapes is what lets the coordinator emit
// responses byte-identical to a single process: both tiers marshal
// the same structs with the same tags, and the distribution payload is
// assembled by one function.
//
// It also holds Front, the HTTP front both tiers embed: the slot gate
// with its MaxQueue shedder (429 + Retry-After), the request context
// combining Limits.DefaultTimeout with the X-Budget-Ms header, the
// size-capped POST decoder, the JSON envelope with the served,
// rejected, abandoned and shed counters, /healthz, and the Prometheus
// exposition writer. One copy means admission, deadlines and request
// accounting cannot drift between the tiers.
package api
