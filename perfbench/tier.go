package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	pathcost "repro"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/wal"
)

// tier is one booted serving tier: a single pathcostd-configured
// server (hot, cold, ingest) or a 3-way sharded fleet behind a
// coordinator (fleet), served in-process on loopback listeners.
type tier struct {
	url      string             // where clients send queries
	sys      *pathcost.System   // the single server's system
	shards   []*pathcost.System // fleet: per-region systems
	part     *shard.Partition   // fleet
	shardURL []string
	// base is the epoch answers are checked against: the one served at
	// boot or, on the fleet, the unsplit union model sharded answers
	// must equal. The fleet keeps that model only as its file (union)
	// while the timed phase runs, so heap_mb does not count a second
	// copy of every variable the shards serve; loadUnion restores it.
	base   *pathcost.ModelEpoch
	union  []byte
	wlog   *wal.Log
	walDir string

	cancel context.CancelFunc
	wg     sync.WaitGroup
	errMu  sync.Mutex
	err    error
}

// enableDaemonDefaults applies pathcostd's serving defaults.
func enableDaemonDefaults(sys *pathcost.System) {
	sys.EnableQueryCache(cacheCap)
	sys.EnableConvMemo(memoCap)
	sys.EnableBatchPlanner(runtime.NumCPU())
}

// bootTier trains the model from in and boots the workload's tier.
// Everything it does is set-up time. rec, when non-nil, wraps every
// handler with span middleware. scratch is where the WAL lives.
func bootTier(workload string, in *inputs, rec *recorder, scratch string) (*tier, error) {
	sys, err := pathcost.NewSystem(in.g, in.train, in.params)
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t := &tier{cancel: cancel}
	fail := func(err error) (*tier, error) {
		t.stop()
		return nil, err
	}
	if in.synLog != nil {
		syn, err := sys.BuildSynopsis(in.synLog, pathcost.SynopsisConfig{MaxEntries: in.size.SynEntries})
		if err != nil {
			return fail(fmt.Errorf("synopsis: %w", err))
		}
		sys.AttachSynopsis(syn)
	}

	if workload == "fleet" {
		part, err := shard.NewPartition(in.g, regions, in.params)
		if err != nil {
			return fail(err)
		}
		split, err := shard.SplitModel(sys, part)
		if err != nil {
			return fail(err)
		}
		t.shards, t.part = split.Shards, part
		t.base = split.Union.CurrentEpoch()
		for _, s := range split.Shards {
			enableDaemonDefaults(s)
			url, err := t.serve(ctx, rec.middleware("shard", false, server.New(s, server.Config{}).Handler()))
			if err != nil {
				return fail(err)
			}
			t.shardURL = append(t.shardURL, url)
		}
		cfg := shard.Config{Shards: t.shardURL}
		if rec != nil {
			cfg.Transport = tracedTransport{rec: rec, name: "coordinator.leg", next: http.DefaultTransport}
		}
		coord, err := shard.New(in.g, part, cfg)
		if err != nil {
			return fail(err)
		}
		if t.url, err = t.serve(ctx, rec.middleware("coordinator", true, coord.Handler())); err != nil {
			return fail(err)
		}
		return t, nil
	}

	enableDaemonDefaults(sys)
	cfg := server.Config{}
	if workload == "ingest" {
		// pathcostd -ingest -wal <dir>: the daemon opens its WAL with
		// wal.Options{}, so appends are not fsynced (the log targets
		// process crashes, which the page cache survives).
		cfg.EnableIngest, cfg.IngestWorkers = true, runtime.NumCPU()
		if t.walDir, err = os.MkdirTemp(scratch, "wal-"); err != nil {
			return fail(err)
		}
		if t.wlog, err = wal.Open(t.walDir, wal.Options{}); err != nil {
			return fail(err)
		}
		sys.AttachWAL(t.wlog)
	}
	t.sys, t.base = sys, sys.CurrentEpoch()
	if t.url, err = t.serve(ctx, rec.middleware("server", true, server.New(sys, cfg).Handler())); err != nil {
		return fail(err)
	}
	return t, nil
}

// serve runs h on a fresh loopback listener the way pathcostd does
// until the tier stops.
func (t *tier) serve(ctx context.Context, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		if err := server.ServeListener(ctx, h, ln, 0); err != nil && !errors.Is(err, http.ErrServerClosed) {
			t.errMu.Lock()
			t.err = errors.Join(t.err, err)
			t.errMu.Unlock()
		}
	}()
	return "http://" + ln.Addr().String(), nil
}

// stop shuts every listener, waits for the serving goroutines and
// removes the WAL.
func (t *tier) stop() error {
	t.cancel()
	t.wg.Wait()
	if t.wlog != nil {
		if err := t.wlog.Close(); err != nil {
			t.err = errors.Join(t.err, err)
		}
	}
	if t.walDir != "" {
		t.err = errors.Join(t.err, os.RemoveAll(t.walDir))
	}
	return t.err
}

// setUp boots the tier size.Setups times, keeps the last one and
// returns every boot's time. Earlier tiers are stopped before the next
// boot so they do not share the machine with it.
func setUp(workload string, in *inputs, rec *recorder, scratch string) (*tier, []float64, error) {
	var times []float64
	var t *tier
	for i := 0; i < max(in.size.Setups, 1); i++ {
		if t != nil {
			if err := t.stop(); err != nil {
				return nil, nil, err
			}
			t = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if t, err = bootTier(workload, in, rec, scratch); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	if t.part != nil {
		var buf bytes.Buffer
		if err := t.base.Hybrid.WriteModelSynopsis(&buf, t.base.Synopsis()); err != nil {
			return nil, nil, errors.Join(err, t.stop())
		}
		t.union, t.base = buf.Bytes(), nil
	}
	return t, times, nil
}

// loadUnion restores the fleet's union model after the timed phase.
func (t *tier) loadUnion(g *pathcost.Graph) error {
	sys, err := pathcost.LoadSystem(g, nil, bytes.NewReader(t.union))
	if err != nil {
		return fmt.Errorf("loading the union model: %w", err)
	}
	t.base = sys.CurrentEpoch()
	return nil
}

// frontURLs are the servers whose /v1/stats describe the tier's query
// path: the single server, or every shard of the fleet.
func (t *tier) frontURLs() []string {
	if t.shardURL != nil {
		return t.shardURL
	}
	return []string{t.url}
}
