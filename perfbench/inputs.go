package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	pathcost "repro"
	"repro/internal/api"
	"repro/internal/netgen"
	"repro/internal/traffic"
	"repro/internal/trajgen"
)

// Size fixes how much input a run generates and how hard it drives the
// serving tier. benchSize is the benchmark; tests run a miniature.
type Size struct {
	Preset     string // road-network preset
	Trips      int    // training trips behind the served model
	HeldOut    int    // held-out trips feeding cold and fleet queries
	IngestPool int    // raw-GPS trips ingest batches are drawn from
	Yesterday  int    // trips behind the synopsis' training query log

	SynEntries int // synopsis entry budget (cold, ingest)
	Setups     int // set-ups per run; setup_s is their nearest-rank median

	HotKeys       int     // distinct (path, α-interval) keys of the hot stream
	HotRate       float64 // hot stream, requests/s
	ReadRate      float64 // ingest's read stream (the hot keys), requests/s
	IngestRate    float64 // ingest batches/s
	IngestBatch   int     // raw trajectories per ingest batch
	Publish       time.Duration
	FleetBatch    int // distribution entries per fleet batch
	FleetPrefixes int // entries per trunk; FleetBatch/FleetPrefixes trunks share a batch

	Counted    int // fixed query prefix behind the exact work counters
	CheckEvery int // one answer in CheckEvery is compared with a direct evaluation
}

// benchSize is the configuration the benchmark runs: the daemon's
// defaults on the small city trained from 10,000 trips.
var benchSize = Size{
	Preset: "small", Trips: 10000, HeldOut: 2000, IngestPool: 600, Yesterday: 1000,
	SynEntries: 512, Setups: 2,
	HotKeys: 300, HotRate: 800, ReadRate: 400, IngestRate: 2, IngestBatch: 8, Publish: 2 * time.Second,
	FleetBatch: 16, FleetPrefixes: 4, Counted: 200, CheckEvery: 8,
}

// Daemon defaults every booted server gets (cmd/pathcostd flags).
const (
	cacheCap = 4096
	memoCap  = 4096
	regions  = 3
)

const (
	// coldPool bounds the cold workload's distinct queries; a run that
	// outlasts it starts over, and workload.repeat_share shows it.
	coldPool = 30000
	// fleetTrunks bounds the fleet workload's trunks (4 per batch).
	fleetTrunks = 16000
	// synLogLen is the size of the synopsis' training query log.
	synLogLen = 500
)

// query is one distribution request: a path at a departure time.
type query struct {
	Path   pathcost.Path
	Depart float64
}

// body is the query's /v1/distribution request body.
func (q query) body() []byte {
	b, err := json.Marshal(api.DistributionRequest{Path: api.EdgeIDs(q.Path), Depart: q.Depart})
	if err != nil {
		panic(err) // a struct of ints and floats always marshals
	}
	return b
}

// cacheKey is the query cache's identity of q: path and α-interval.
func cacheKey(p pathcost.Params, q query) string {
	return fmt.Sprintf("%s@%d", q.Path.Key(), p.IntervalOf(q.Depart))
}

// inputs is everything a run generates from its seed before set-up.
// The program under test sees only these values.
type inputs struct {
	size   Size
	params pathcost.Params
	g      *pathcost.Graph
	train  *pathcost.Collection

	hotKeys []query // hot and ingest reads
	hotSeq  []int   // index into hotKeys of the i-th scheduled read
	cold    []query // cold: distinct sub-paths, each sent once unless the run outlasts the pool
	synLog  []pathcost.WorkloadQuery
	fleet   [][]query                // fleet batches
	ingest  [][]*pathcost.Trajectory // ingest batches of raw GPS traces

	// eligible marks the queries with at least β qualifying training
	// trajectories; set for traced runs, which report accuracy.
	eligible eligible
}

// queries lists the workload's distribution queries in stream order.
func (in *inputs) queries() []query {
	out := append(append([]query(nil), in.hotKeys...), in.cold...)
	for _, b := range in.fleet {
		out = append(out, b...)
	}
	return out
}

// keep selects the answers a run holds on to after validating them:
// the seeded sample compared with direct evaluation and, in traced
// runs, every answer the accuracy baseline applies to.
func (in *inputs) keep(seed int64, i int, q query) bool {
	return sampled(seed, i, in.size.CheckEvery) || in.eligible[exactKey(q)]
}

// The deployment is the same in every run: the city, the training
// trips behind the served model, the held-out population queries and
// ingest draw from, the popular (hot) routes, and yesterday's query log
// behind the synopsis all come from fixed generator seeds. The workload
// seed varies only the traffic: which held-out trips and windows are
// queried and in which order, the hot stream's draws, the ingest
// batches.
// Training sets from different seeds differ by up to 1.5x in per-query
// cost, which would swamp the run-to-run spread the bounds are set for.
const (
	trainSeed     = 20160901
	yesterdaySeed = trainSeed + 1
	ingestSeed    = trainSeed + 2
	hotKeySeed    = trainSeed + 3
)

func trips(g *pathcost.Graph, seed int64, n int, gps bool) *trajgen.Result {
	return trajgen.New(g, traffic.NewModel(traffic.Config{}), trajgen.Config{
		Seed: seed, NumTrips: n, EmitGPS: gps,
	}).Generate()
}

// genInputs builds the workload's inputs from seed; seconds sizes the
// scheduled streams of the open-loop workloads.
func genInputs(workload string, size Size, seed int64, seconds float64) (*inputs, error) {
	in := &inputs{size: size, params: pathcost.DefaultParams()}
	in.g = netgen.Generate(netgen.PresetConfig(netgen.Preset(size.Preset)))
	// One generator run: the first Trips trips train the model, the
	// rest are the held-out population queries are cut from.
	gen := trips(in.g, trainSeed, size.Trips+size.HeldOut, false)
	in.train = gen.Collection.Subset(size.Trips)
	rnd := rand.New(rand.NewSource(seed))
	order := rnd.Perm(gen.Collection.Len() - size.Trips)
	held := make([]*pathcost.Matched, len(order))
	for i, j := range order {
		held[i] = gen.Collection.Traj(size.Trips + j)
	}

	switch workload {
	case "hot":
		in.genHot(rnd, size.HotRate, seconds)
	case "cold":
		in.cold = distinctWindows(held, rnd, 8, 20, coldPool)
		in.synLog = yesterdayLog(in.g, size.Yesterday)
	case "fleet":
		in.fleet = fleetBatches(in.params, held, rnd, size.FleetBatch, size.FleetPrefixes)
	case "ingest":
		in.genHot(rnd, size.ReadRate, seconds)
		// Raw GPS traces come from their own fixed run of the same
		// generator (emitting GPS changes its random stream, so the
		// training run cannot emit them); the seed picks and orders them.
		n := int(math.Ceil(size.IngestRate*seconds)) + 1
		raw := trips(in.g, ingestSeed, size.IngestPool, true).Raw
		if n*size.IngestBatch > len(raw) {
			return nil, fmt.Errorf("ingest needs %d raw traces, have %d", n*size.IngestBatch, len(raw))
		}
		pick := rnd.Perm(len(raw))
		for i := 0; i < n; i++ {
			var batch []*pathcost.Trajectory
			for _, j := range pick[i*size.IngestBatch : (i+1)*size.IngestBatch] {
				batch = append(batch, raw[j])
			}
			in.ingest = append(in.ingest, batch)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want hot, cold, fleet or ingest)", workload)
	}
	return in, nil
}

// genHot draws HotKeys distinct (path, α-interval) keys from training
// trajectories — 4–12 edge windows at the trajectory's own arrival
// time — and a Zipf(1.1)-skewed schedule over them. The keys and their
// popularity ranks are the city's popular routes, part of the fixed
// deployment; rnd, from the workload seed, draws the schedule.
func (in *inputs) genHot(rnd *rand.Rand, rate, seconds float64) {
	keys := rand.New(rand.NewSource(hotKeySeed))
	seen := map[string]bool{}
	for attempts := 0; len(in.hotKeys) < in.size.HotKeys && attempts < 100*in.size.HotKeys; attempts++ {
		m := in.train.Traj(keys.Intn(in.train.Len()))
		if len(m.Path) < 4 {
			continue
		}
		n := min(4+keys.Intn(9), len(m.Path))
		at := keys.Intn(len(m.Path) - n + 1)
		q := query{Path: m.Path[at : at+n].Clone(), Depart: m.ArrivalAt(at)}
		if k := cacheKey(in.params, q); !seen[k] {
			seen[k] = true
			in.hotKeys = append(in.hotKeys, q)
		}
	}
	zipf := rand.NewZipf(rnd, 1.1, 1, uint64(len(in.hotKeys)-1))
	in.hotSeq = make([]int, int(math.Ceil(rate*seconds)))
	for i := range in.hotSeq {
		in.hotSeq[i] = int(zipf.Uint64())
	}
}

// distinctWindows cuts windows of minLen..maxLen edges starting every
// second edge of every trajectory, each departing at the trajectory's
// arrival on its first edge, keeps paths not seen before, and returns
// them in seeded random order, at most limit of them when limit > 0.
func distinctWindows(ms []*pathcost.Matched, rnd *rand.Rand, minLen, maxLen, limit int) []query {
	var out []query
	seen := map[string]bool{}
	for _, m := range ms {
		for at := 0; at+minLen <= len(m.Path); at += 2 {
			n := min(minLen+rnd.Intn(maxLen-minLen+1), len(m.Path)-at)
			p := m.Path[at : at+n]
			if k := p.Key(); !seen[k] {
				seen[k] = true
				out = append(out, query{Path: p.Clone(), Depart: m.ArrivalAt(at)})
			}
		}
	}
	rnd.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// yesterdayLog is the synopsis' training query log: cold-shaped
// queries cut from another day of trips.
func yesterdayLog(g *pathcost.Graph, n int) []pathcost.WorkloadQuery {
	c := trips(g, yesterdaySeed, n, false).Collection
	ms := make([]*pathcost.Matched, c.Len())
	for i := range ms {
		ms[i] = c.Traj(i)
	}
	var out []pathcost.WorkloadQuery
	for _, q := range distinctWindows(ms, rand.New(rand.NewSource(yesterdaySeed)), 8, 20, synLogLen) {
		out = append(out, pathcost.WorkloadQuery{Path: q.Path, Depart: q.Depart})
	}
	return out
}

// fleetBatches groups held-out sub-paths into /v1/batch bodies of per
// entries: each trunk — an 11–23 edge window at its own departure —
// contributes its `prefixes` longest prefixes, so siblings share
// prefixes, and per/prefixes trunks share a batch, so one heavy trunk
// does not make its whole batch heavy. A trunk that would give some
// (path, α-interval) key a second departure is skipped: the shard query
// cache answers per interval, and the answer check compares against the
// exact departure.
func fleetBatches(params pathcost.Params, ms []*pathcost.Matched, rnd *rand.Rand, per, prefixes int) [][]query {
	var out [][]query
	var batch []query
	departOf := map[string]float64{}
	for _, trunk := range distinctWindows(ms, rnd, prefixes+7, 23, fleetTrunks) {
		group := make([]query, 0, prefixes)
		for j := 0; j < prefixes; j++ {
			q := query{Path: trunk.Path[:len(trunk.Path)-j], Depart: trunk.Depart}
			if d, seen := departOf[cacheKey(params, q)]; seen && d != q.Depart {
				group = nil
				break
			}
			group = append(group, q)
		}
		for _, q := range group {
			departOf[cacheKey(params, q)] = q.Depart
		}
		if batch = append(batch, group...); len(batch) == per {
			out = append(out, batch)
			batch = nil
		}
	}
	return out
}

// ingestBody is the /v1/ingest request body for one batch of raw traces.
func ingestBody(batch []*pathcost.Trajectory) []byte {
	type point struct {
		Lat float64 `json:"lat"`
		Lon float64 `json:"lon"`
		T   float64 `json:"t"`
	}
	type traj struct {
		ID     int64   `json:"id"`
		Points []point `json:"points"`
	}
	req := struct {
		Trajectories []traj `json:"trajectories"`
	}{}
	for _, tr := range batch {
		t := traj{ID: tr.ID}
		for _, r := range tr.Records {
			t.Points = append(t.Points, point{Lat: r.Pt.Lat, Lon: r.Pt.Lon, T: r.Time})
		}
		req.Trajectories = append(req.Trajectories, t)
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return b
}
