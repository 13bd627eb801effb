package core

import (
	"strconv"

	"repro/internal/cache"
)

// ConvMemo is the incremental sub-path convolution engine: a
// prefix-keyed memo of PathStates layered on the internal/cache LRU.
// Evaluating an n-edge path runs a chain of factor convolutions
// (Equation 2); candidate paths explored from one source — by the
// routing DFS, by the queries of one /v1/batch request, or by
// successive PathDistribution calls — share long prefixes, and the
// memo lets each "prefix + one more edge" step reuse the stored chain
// state of the prefix instead of re-deriving the whole path.
//
// Keys are exact: (path signature, departure time, method, rank cap).
// Unlike the α-interval query cache, two departures in the same
// interval do NOT share a memo entry — the shift-and-enlarge windows
// of Eq. 3 depend on the exact departure — so memoized results are
// byte-identical to unmemoized ones, never approximate.
//
// A ConvMemo is safe for concurrent use: the LRU shards its locks and
// the memoized PathStates are immutable after construction (every
// chain operation builds new states). One memo may be shared by any
// number of concurrent routing and distribution queries.
type ConvMemo struct {
	lru *cache.LRU[*PathState]
	// prefix namespaces every key with the model epoch the entries
	// were computed against (see ForEpoch). Empty for a standalone
	// memo, whose entries then have no epoch identity.
	prefix string
}

// NewConvMemo builds a memo holding at most capacity prefix states.
// capacity < 1 is treated as 1.
func NewConvMemo(capacity int) *ConvMemo {
	return &ConvMemo{lru: cache.NewLRU[*PathState](capacity)}
}

// ForEpoch returns a view of the memo whose keys carry the given
// epoch sequence number. Views share the underlying LRU — its
// capacity, shards and statistics — but entries written through one
// epoch's view are invisible to every other epoch: publishing a new
// model invalidates logically, with stale entries aging out of the
// shared LRU instead of being flushed wholesale.
func (m *ConvMemo) ForEpoch(seq uint64) *ConvMemo {
	return &ConvMemo{lru: m.lru, prefix: "e" + strconv.FormatUint(seq, 10) + "|"}
}

// key namespaces the exact prefix-state identity with the view's
// epoch.
func (m *ConvMemo) key(pathKey string, t float64, opt QueryOptions) string {
	return m.prefix + memoKey(pathKey, t, opt)
}

// Stats snapshots the memo's hit/miss/eviction counters.
func (m *ConvMemo) Stats() cache.Stats { return m.lru.Stats() }

// memoKey is the exact identity of a prefix state. The departure is
// formatted losslessly ('b' is exact for float64), so distinct
// departures never alias.
func memoKey(pathKey string, t float64, opt QueryOptions) string {
	return pathKey + "@" + strconv.FormatFloat(t, 'b', -1, 64) +
		"/" + string(opt.Method) + "#" + strconv.Itoa(opt.RankCap)
}

// memoizable reports whether the method has an incremental (chain)
// evaluator; RD's random decomposition does not.
func memoizable(m Method) bool {
	return m == MethodOD || m == MethodHP || m == MethodLB
}
