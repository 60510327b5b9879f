package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cloudwatch/internal/cloud"
	"cloudwatch/internal/greynoise"
	"cloudwatch/internal/honeypot"
	"cloudwatch/internal/ids"
	"cloudwatch/internal/netsim"
	"cloudwatch/internal/obs"
	"cloudwatch/internal/scanners"
	"cloudwatch/internal/searchengine"
	"cloudwatch/internal/telescope"
	"cloudwatch/internal/wire"
)

// This file is the generation side of the streaming study engine: the
// study week is partitioned into time epochs, the existing sharded
// generators run once, and every probe lands in the per-epoch sink its
// timestamp belongs to — per-epoch record columns, telescope
// collectors, and GreyNoise deltas. Prefix snapshots (Snapshot)
// reassemble the first p epochs into a full *Study that holds the
// records of a batch Run truncated at the epoch boundary
// (Config.WindowSec), so every table, figure, and ablation renders on
// a snapshot byte for byte as on that Run. internal/stream layers the
// ingestion loop, the K/prefix sweep engine, and the HTTP server on
// top.

// epochSink is one (worker, epoch) cell of the partitioned pipeline:
// the records, telescope aggregation, and GreyNoise delta of the
// probes one worker routed into one epoch.
type epochSink struct {
	tel *telescope.Collector
	gn  *greynoise.Delta
	blk netsim.RecordBlock
}

// actorRuns locates one actor's records inside its worker's epoch
// sinks: the [lo, hi) record range per epoch. An actor runs on exactly
// one worker, so all of its epoch runs live in one sink set, and the
// runs of a worker's actors tile each of its sinks in actor order.
type actorRuns struct {
	sinks  []*epochSink
	lo, hi []int32
}

// streamShard is the epoch-routing counterpart of shard: one worker's
// view of the partitioned pipeline. Each probe resolves its
// destination through the shared dstCache, then lands in the sink of
// the epoch its timestamp falls in. The worker's sink blocks share one
// chunked column arena and are pre-sized from the scenario's emission
// estimate, so 8× epoch partitioning no longer multiplies column
// allocations and growth zeroing.
type streamShard struct {
	dc    dstCache
	eb    netsim.Epochs
	sinks []*epochSink

	// Per-source GreyNoise dedup, hoisted out of the sinks: actors emit
	// long same-source probe runs, but with timestamps routing probes
	// round-robin across epoch sinks the per-Delta last-source
	// short-circuit almost never fires, degenerating gn.Observe into a
	// map insert per probe. The shard instead tracks which epoch sinks
	// have already seen the current source run (a bitmask for studies
	// of ≤64 epochs) and skips the Delta call entirely. Observe is a
	// set insert, so skipping duplicates is observation-equivalent.
	gnSrc  wire.Addr
	gnOK   bool
	gnMask uint64

	// Telescope run dedup, hoisted the same way: within one
	// (port, src) emission run the unique-source set insert is
	// idempotent per epoch collector, and within one (port, src, dst)
	// run the watch-log pair append is skip-safe per epoch log (a
	// skipped pair is always already in that log). The masks track
	// which epoch collectors have seen the current run, so the per-epoch
	// collectors skip their map inserts and log appends without any
	// per-probe map work. Packet and AS-frequency counting still happen
	// per probe (see telescope.Collector.ObserveRun).
	telPort  uint16
	telSrc   wire.Addr
	telDst   wire.Addr
	telOK    bool
	srcMask  uint64
	pairMask uint64
}

// observeGN records p.Src as seen in epoch e's GreyNoise delta,
// short-circuiting repeats within one source run.
func (sh *streamShard) observeGN(sink *epochSink, e int, src wire.Addr) {
	if !sh.gnOK || src != sh.gnSrc {
		sh.gnSrc, sh.gnOK = src, true
		sh.gnMask = 0
	}
	if e < 64 {
		if bit := uint64(1) << e; sh.gnMask&bit == 0 {
			sh.gnMask |= bit
			sink.gn.Observe(src)
		}
		return
	}
	sink.gn.Observe(src)
}

// dispatch routes one probe: telescope probes aggregate into the
// collector of their epoch (with run-level dedup of the set inserts and
// watch-log appends), honeypot probes append to the record block of
// their epoch's sink. Like the batch dispatch, the probe is borrowed
// only for the duration of the call.
func (sh *streamShard) dispatch(p *netsim.Probe) {
	sec, nsec := netsim.StudySeconds(p.T)
	e := sh.eb.EpochOf(sec)
	sink := sh.sinks[e]
	tel, t, vi := sh.dc.resolve(p.Dst)
	if tel {
		if p.Port != sh.telPort || p.Src != sh.telSrc || !sh.telOK {
			sh.telPort, sh.telSrc, sh.telOK = p.Port, p.Src, true
			sh.telDst = p.Dst
			sh.srcMask, sh.pairMask = 0, 0
		} else if p.Dst != sh.telDst {
			sh.telDst = p.Dst
			sh.pairMask = 0
		}
		if e < 64 {
			bit := uint64(1) << e
			sink.tel.ObserveRun(p, sh.srcMask&bit == 0, sh.pairMask&bit == 0)
			sh.srcMask |= bit
			sh.pairMask |= bit
		} else {
			sink.tel.Observe(p)
		}
		sh.observeGN(sink, e, p.Src)
		return
	}
	if t == nil {
		return
	}
	pay, creds, ok := honeypot.Collect(t, p)
	if !ok {
		return
	}
	sh.observeGN(sink, e, p.Src)
	sink.blk.AppendAt(vi, sec, nsec, p, pay, creds)
}

// EpochSet is the generated, epoch-partitioned raw material of one
// study: everything needed to assemble a prefix snapshot for any
// number of ingested epochs. It is immutable once GenerateEpochs
// returns; Snapshot may be called concurrently.
type EpochSet struct {
	cfg    Config
	eb     netsim.Epochs
	u      *netsim.Universe
	censys *searchengine.Engine
	shodan *searchengine.Engine
	actors []*scanners.Actor

	sinks [][]*epochSink // per worker, per epoch
	runs  []actorRuns    // per actor, canonical order
}

// GenerateEpochs builds the deployment, crawls the search engines, and
// runs the actor population once through the sharded pipeline with
// every probe routed into the per-epoch sink of its timestamp. The
// result feeds prefix snapshots; epochs < 1 is treated as 1.
// Config.WindowSec must be zero — truncation is what snapshots are
// for.
func GenerateEpochs(cfg Config, epochs int) (*EpochSet, error) {
	es, ctx, err := newEpochSet(cfg, epochs)
	if err != nil {
		return nil, err
	}
	sp := obs.StartStage(obs.StageEpochGeneration)
	es.runActors(ctx, es.cfg.Workers)
	sp.End()
	mRecordsGenerated.Add(int64(es.NumRecords()))
	return es, nil
}

// newEpochSet builds everything of an epoch-partitioned study that is
// deterministic from the configuration alone — deployment, universe,
// search-engine crawls, actor population — and leaves the generated
// material empty. GenerateEpochs runs the actors to fill it;
// RestoreEpochSet installs persisted material instead, which is what
// lets a durable-store cold start skip generation entirely.
func newEpochSet(cfg Config, epochs int) (*EpochSet, *scanners.Context, error) {
	if cfg.WindowSec != 0 {
		return nil, nil, fmt.Errorf("core: WindowSec is incompatible with epoch streaming (prefix snapshots are the truncation mechanism)")
	}
	if cfg.Year == 0 {
		cfg.Year = 2021
	}
	cfg.Actors.Scenario = scanners.CanonicalScenario(cfg.Actors.Scenario)
	actors, err := scanners.PopulationFor(cfg.Actors)
	if err != nil {
		return nil, nil, fmt.Errorf("core: actor population: %w", err)
	}
	deployment, err := cloud.Build(cfg.Deploy)
	if err != nil {
		return nil, nil, fmt.Errorf("core: building deployment: %w", err)
	}
	u, err := deployment.Universe(cfg.Seed, cfg.Year)
	if err != nil {
		return nil, nil, fmt.Errorf("core: building universe: %w", err)
	}

	es := &EpochSet{
		cfg:    cfg,
		eb:     netsim.NewEpochs(epochs),
		u:      u,
		censys: searchengine.New("censys"),
		shodan: searchengine.New("shodan"),
	}
	crawlTime := netsim.StudyStart.Add(-24 * time.Hour)
	es.censys.Crawl(u, crawlTime)
	es.shodan.Crawl(u, crawlTime)

	es.actors = actors
	ctx := &scanners.Context{U: u, Censys: es.censys, Shodan: es.shodan, Seed: cfg.Seed, Year: cfg.Year}
	return es, ctx, nil
}

// runActors drives the population across workers exactly like the
// batch pipeline (each actor on one worker, its own seeded streams):
// every worker routes its probes into per-epoch sinks whose record
// blocks share one per-worker chunked column arena and are pre-sized
// from the scenario's emission estimate, so the hot path appends
// without geometric reallocation. Append order within a sink is the
// dispatch order of the batch pipeline, so the generated material is
// byte-identical to a direct per-probe routing.
func (es *EpochSet) runActors(ctx *scanners.Context, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(es.actors) {
		workers = len(es.actors)
	}
	if workers < 1 {
		workers = 1
	}
	nEpochs := es.eb.NumEpochs()
	es.sinks = make([][]*epochSink, workers)
	es.runs = make([]actorRuns, len(es.actors))

	// Pre-size each worker's sinks from a sampled estimate of the
	// scenario's emission volume: count the emissions that resolve to a
	// monitored target (the telescope share never lands in a record
	// block). Work stealing skews per-worker shares and epochs are not
	// uniform, so leave headroom; a sink that outgrows its slice still
	// appends cheaply through the worker's shared arena.
	estDC := dstCache{u: es.u}
	est := scanners.EstimateEmission(ctx, es.actors, func(p *netsim.Probe) bool {
		tel, t, _ := estDC.resolve(p.Dst)
		return !tel && t != nil
	})
	// 50% slack: it absorbs both the diurnal skew across epochs and the
	// downward bias of the actor-strided estimate on heavy-tailed
	// populations, and idle capacity in pointer-free columns costs
	// bytes, not GC scan work.
	perSink := est/(workers*nEpochs) + est/(2*workers*nEpochs) + 256

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		arena := netsim.NewColumnArena(perSink * nEpochs)
		sinks := make([]*epochSink, nEpochs)
		for e := range sinks {
			sink := &epochSink{
				tel: telescope.New(es.cfg.TelescopeWatch...),
				gn:  greynoise.NewDelta(),
			}
			sink.blk.UseArena(arena)
			sink.blk.Grow(perSink)
			sinks[e] = sink
		}
		es.sinks[w] = sinks
		sh := &streamShard{dc: dstCache{u: es.u}, eb: es.eb, sinks: sinks}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(es.actors) {
					break
				}
				run := actorRuns{sinks: sinks, lo: make([]int32, nEpochs), hi: make([]int32, nEpochs)}
				for e, sink := range sinks {
					run.lo[e] = int32(sink.blk.Len())
				}
				es.actors[i].Run(ctx, sh.dispatch)
				for e, sink := range sinks {
					run.hi[e] = int32(sink.blk.Len())
				}
				// es.runs writes are disjoint across workers: each actor
				// ran on exactly one worker.
				es.runs[i] = run
			}
		}()
	}
	wg.Wait()
	for _, sinks := range es.sinks {
		for _, sink := range sinks {
			sink.tel.Flush()
		}
	}
}

// NumEpochs returns the number of epochs the week is partitioned into.
func (es *EpochSet) NumEpochs() int { return es.eb.NumEpochs() }

// NumRecords returns the total honeypot record count across every
// epoch sink — the record volume a full-prefix snapshot materializes.
func (es *EpochSet) NumRecords() int {
	n := 0
	for _, sinks := range es.sinks {
		for _, sink := range sinks {
			n += sink.blk.Len()
		}
	}
	return n
}

// Config returns the (year-defaulted) study configuration the epochs
// were generated from.
func (es *EpochSet) Config() Config { return es.cfg }

// Window returns the wall-clock span of epoch e.
func (es *EpochSet) Window(e int) (start, end time.Time) { return es.eb.Window(e) }

// Bound returns the starting study-second of epoch e (Bound(NumEpochs())
// is the end of the week) — the WindowSec a truncated batch Run needs
// to reproduce the first e epochs.
func (es *EpochSet) Bound(e int) int32 { return es.eb.Bound(e) }

// EpochRecords returns the number of honeypot records generated inside
// epoch e across all workers.
func (es *EpochSet) EpochRecords(e int) int {
	n := 0
	for _, sinks := range es.sinks {
		n += sinks[e].blk.Len()
	}
	return n
}

// EpochTelescopePackets returns the telescope packets of epoch e.
func (es *EpochSet) EpochTelescopePackets(e int) int {
	n := 0
	for _, sinks := range es.sinks {
		n += sinks[e].tel.Packets()
	}
	return n
}

// Snapshot assembles the immutable study of the first `prefix` epochs
// (1 ≤ prefix ≤ NumEpochs()): record columns appended per actor in
// (actor, epoch) order, telescope and GreyNoise shards union-merged,
// and every derived column (per-record verdicts, per-payload facts,
// per-vantage lists) finalized — so the snapshot renders every table,
// figure, and ablation exactly like a batch Run truncated at
// Bound(prefix) (the full-week Run when prefix == NumEpochs()), whose
// records it holds in a different order. Each snapshot owns its
// collectors and caches; building one never mutates the EpochSet, so
// snapshots may be assembled concurrently.
func (es *EpochSet) Snapshot(prefix int) (*Study, error) {
	if prefix < 1 || prefix > es.eb.NumEpochs() {
		return nil, fmt.Errorf("core: snapshot prefix %d out of range [1, %d]", prefix, es.eb.NumEpochs())
	}
	sp := obs.StartStage(obs.StageSnapshotRebuild)
	defer sp.End()
	cfg := es.cfg
	if prefix < es.eb.NumEpochs() {
		cfg.WindowSec = es.eb.Bound(prefix)
	}
	s := &Study{
		Cfg:    cfg,
		U:      es.u,
		Tel:    telescope.New(cfg.TelescopeWatch...),
		GN:     greynoise.NewService(),
		Censys: es.censys,
		Shodan: es.shodan,
		Actors: es.actors,
		IDS:    ids.DefaultEngine(),
	}
	for _, actor := range es.actors {
		if actor.Benign {
			s.GN.VetASN(actor.AS.ASN)
		}
	}

	// Union-merge the collector shards of every ingested epoch and lay
	// out the snapshot's credential arena (per-sink index rebasing, as
	// the batch merge does per shard).
	total, credTotal := 0, 0
	credBase := make(map[*epochSink]int32)
	for _, sinks := range es.sinks {
		for e := 0; e < prefix; e++ {
			sink := sinks[e]
			s.Tel.Merge(sink.tel)
			s.GN.MergeDelta(sink.gn)
			credBase[sink] = int32(credTotal)
			credTotal += len(sink.blk.CredLists)
			total += sink.blk.Len()
		}
	}
	s.blk.Grow(total)
	s.blk.CredLists = make([][]netsim.Credential, 0, credTotal)
	for _, sinks := range es.sinks {
		for e := 0; e < prefix; e++ {
			s.blk.CredLists = append(s.blk.CredLists, sinks[e].blk.CredLists...)
		}
	}

	// Lay out the record columns actor-major, each actor's ingested
	// epoch runs in epoch order. Every verdict is a function of its own
	// record, so this order reaches no rendered output.
	for i := range es.runs {
		run := &es.runs[i]
		for e := 0; e < prefix; e++ {
			if run.hi[e] > run.lo[e] {
				s.blk.AppendRange(&run.sinks[e].blk, int(run.lo[e]), int(run.hi[e]), credBase[run.sinks[e]])
			}
		}
	}

	s.fillVerdicts(0, map[verdictKey]bool{})
	s.buildDerived(netsim.PayloadCount())
	return s, nil
}
