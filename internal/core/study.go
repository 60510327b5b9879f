// Package core is the paper's primary contribution in code: the
// measurement study driver (deploy vantage points, generate attacker
// traffic, collect records) and the §3.3 statistical comparison
// methodology, plus one experiment driver per table and figure of the
// evaluation (experiments*.go).
package core

import (
	"fmt"
	"sync"
	"time"

	"cloudwatch/internal/cloud"
	"cloudwatch/internal/fingerprint"
	"cloudwatch/internal/greynoise"
	"cloudwatch/internal/ids"
	"cloudwatch/internal/netsim"
	"cloudwatch/internal/obs"
	"cloudwatch/internal/scanners"
	"cloudwatch/internal/searchengine"
	"cloudwatch/internal/telescope"
)

// Config assembles a full study: deployment, actor population, and
// telescope watch ports.
type Config struct {
	Seed   int64
	Year   int
	Deploy cloud.Config
	Actors scanners.Config
	// TelescopeWatch lists ports with per-destination telescope
	// tracking (Figure 1). Defaults to 22, 80, 445, 7574, 17128.
	TelescopeWatch []uint16
	// Workers is the number of pipeline workers the actor population
	// is sharded across. 0 (the default) means runtime.GOMAXPROCS(0).
	// Results are byte-identical for every worker count.
	Workers int
	// WindowSec truncates the study to the first WindowSec study-
	// seconds: probes timestamped at or past the boundary are dropped
	// before they reach any collector. 0 (the default) keeps the full
	// week. A truncated Run is the batch reference for the streaming
	// engine's epoch-prefix snapshots (see EpochSet).
	WindowSec int32
}

// DefaultConfig returns the standard study of a given year at default
// scale.
func DefaultConfig(seed int64, year int) Config {
	return Config{
		Seed:           seed,
		Year:           year,
		Deploy:         cloud.DefaultConfig(seed, year),
		Actors:         scanners.Config{Seed: seed, Year: year, Scale: 1, Scenario: scanners.BaselineScenario},
		TelescopeWatch: []uint16{22, 80, 445, 7574, 17128},
	}
}

// Scenario returns the canonical scenario id of the study config (the
// baseline when unset).
func (c Config) Scenario() string {
	return scanners.CanonicalScenario(c.Actors.Scenario)
}

// Study is the outcome of one simulated collection week: everything
// the analysis pipeline consumes.
//
// Records are stored columnar (netsim.RecordBlock) with every derived
// per-record fact — the §3.2 malicious verdict, interned payload ids,
// study seconds — materialized by the pipeline itself, so the derived
// index is complete the moment Run returns; there is no post-hoc
// record scan. Row-oriented access goes through the compatibility
// view (NumRecords, RecordAt, VantageRecords, VantageEach), which
// reconstructs netsim.Record values on the fly; reconstructed records
// alias only interner-owned payload bytes and the study's credential
// arena, never a scanner dictionary buffer.
type Study struct {
	Cfg    Config
	U      *netsim.Universe
	Tel    *telescope.Collector
	GN     *greynoise.Service
	Censys *searchengine.Engine
	Shodan *searchengine.Engine
	Actors []*scanners.Actor
	IDS    *ids.Engine

	// The columnar record store plus its derived columns: mal is the
	// per-record §3.2 verdict, byVantage the per-vantage record lists
	// (indexed by vantage id — Universe target position), and
	// payKey/payProto the per-payload normalized key and LZR
	// fingerprint (indexed by netsim.PayloadID). All are read-only
	// after Run.
	blk       netsim.RecordBlock
	mal       []bool
	byVantage [][]int32
	payKey    []string
	payProto  []fingerprint.Protocol

	// The view and telescope-series caches, built lazily on first read.
	views       viewCache
	seriesMu    sync.Mutex
	seriesCache map[uint16]*seriesEntry

	// The shared Table 4/5 geography pair list (experiments_geo.go),
	// derived once from the immutable universe.
	geoPairsOnce sync.Once
	geoPairs     []geoPair

	// The §3.3 comparison-engine caches: per-(view, characteristic)
	// ranked top-K summaries and per-(family, slice, characteristic, K)
	// finished comparison families (family.go).
	summMu    sync.Mutex
	summCache map[summKey]*summEntry
	famMu     sync.Mutex
	famCache  map[famKey]*famEntry
}

// Run executes a full study: build the deployment, crawl the search
// engines, generate the actor population's traffic, route it through
// the collectors, and feed the GreyNoise classifier. The population is
// partitioned across cfg.Workers pipeline workers (GOMAXPROCS by
// default), each with a private shard of collectors; shards merge in
// canonical actor order, so the study is byte-identical to a serial
// run for any worker count.
func Run(cfg Config) (*Study, error) {
	if cfg.Year == 0 {
		cfg.Year = 2021
	}
	// Canonicalize and validate the scenario before building anything:
	// a typoed scenario id fails with the registered ids enumerated,
	// not halfway into a deployment build.
	cfg.Actors.Scenario = scanners.CanonicalScenario(cfg.Actors.Scenario)
	actors, err := scanners.PopulationFor(cfg.Actors)
	if err != nil {
		return nil, fmt.Errorf("core: actor population: %w", err)
	}
	deployment, err := cloud.Build(cfg.Deploy)
	if err != nil {
		return nil, fmt.Errorf("core: building deployment: %w", err)
	}
	u, err := deployment.Universe(cfg.Seed, cfg.Year)
	if err != nil {
		return nil, fmt.Errorf("core: building universe: %w", err)
	}

	s := &Study{
		Cfg:    cfg,
		U:      u,
		Tel:    telescope.New(cfg.TelescopeWatch...),
		GN:     greynoise.NewService(),
		Censys: searchengine.New("censys"),
		Shodan: searchengine.New("shodan"),
		IDS:    ids.DefaultEngine(),
	}

	// Search engines crawl before the study window opens; attackers
	// mine the resulting index during the week (§4.3).
	crawlTime := netsim.StudyStart.Add(-24 * time.Hour)
	s.Censys.Crawl(u, crawlTime)
	s.Shodan.Crawl(u, crawlTime)

	s.Actors = actors
	ctx := &scanners.Context{U: u, Censys: s.Censys, Shodan: s.Shodan, Seed: cfg.Seed, Year: cfg.Year}

	for _, actor := range s.Actors {
		if actor.Benign {
			s.GN.VetASN(actor.AS.ASN)
		}
	}
	sp := obs.StartStage("batch_generation")
	s.runActors(ctx, cfg.Workers)
	sp.End()
	mRecordsGenerated.Add(int64(s.blk.Len()))
	return s, nil
}

// maliciousRecord is the single copy of the §3.2 malicious-traffic
// definition: any login attempt (bypassing authentication) is
// malicious; payloadless records are benign; otherwise the
// Suricata-style engine judges the payload on the record's own
// transport and port. The pipeline materializes it as the mal column
// (fillVerdicts), judging each distinct (payload, transport, port)
// once.
func maliciousRecord(e *ids.Engine, rec netsim.Record) bool {
	if len(rec.Creds) > 0 {
		return true
	}
	if len(rec.Payload) == 0 {
		return false
	}
	return e.Malicious(rec.Transport.String(), rec.Port, rec.Payload)
}

// NumRecords returns the number of honeypot records collected.
func (s *Study) NumRecords() int { return s.blk.Len() }

// RecordAt reconstructs record i as a row-oriented netsim.Record —
// the compatibility view over the columnar store. The result is
// self-contained and safe to retain; its Payload and Creds alias
// immutable study-owned storage and must not be mutated.
func (s *Study) RecordAt(i int) netsim.Record {
	return s.blk.Record(i, s.U.Targets()[s.blk.Vantage[i]].ID)
}

// EachRecord calls fn for every record in collection order, with the
// record index alongside the reconstructed view.
func (s *Study) EachRecord(fn func(i int, rec netsim.Record)) {
	for i := 0; i < s.blk.Len(); i++ {
		fn(i, s.RecordAt(i))
	}
}

// vantageIdxs returns the record indexes of one vantage point, in
// arrival order.
func (s *Study) vantageIdxs(id string) []int32 {
	vi, ok := s.U.VantageIndex(id)
	if !ok {
		return nil
	}
	return s.byVantage[vi]
}

// VantageRecords returns the records of one vantage point, in arrival
// order. The slice is freshly allocated; for allocation-free
// traversal use VantageEach.
func (s *Study) VantageRecords(id string) []netsim.Record {
	idxs := s.vantageIdxs(id)
	out := make([]netsim.Record, len(idxs))
	for i, ri := range idxs {
		out[i] = s.blk.Record(int(ri), id)
	}
	return out
}

// VantageEach calls fn for every record of one vantage point in
// arrival order without materializing the record list — the zero-copy
// counterpart of VantageRecords (records are reconstructed from the
// columns on the caller's stack).
func (s *Study) VantageEach(id string, fn func(rec netsim.Record)) {
	for _, ri := range s.vantageIdxs(id) {
		fn(s.blk.Record(int(ri), id))
	}
}

// RegionRecords returns the records of every vantage point in a
// region, keyed by vantage ID. The per-vantage gathers fan out across
// cores.
func (s *Study) RegionRecords(region string) map[string][]netsim.Record {
	targets := s.U.Region(region)
	gathered := make([][]netsim.Record, len(targets))
	ParallelEach(len(targets), func(i int) {
		gathered[i] = s.VantageRecords(targets[i].ID)
	})
	out := make(map[string][]netsim.Record, len(targets))
	for i, t := range targets {
		out[t.ID] = gathered[i]
	}
	return out
}
