package core

import (
	"fmt"

	"cloudwatch/internal/greynoise"
	"cloudwatch/internal/ids"
	"cloudwatch/internal/netsim"
	"cloudwatch/internal/obs"
	"cloudwatch/internal/telescope"
)

// This file is the incremental side of snapshot assembly. The
// from-scratch assembler (EpochSet.Snapshot) re-merges every ingested
// epoch — every actor's runs plus a full verdict and derived-column
// rebuild — so materializing every prefix of an n-epoch stream costs
// O(n²) record traffic. Incremental assembly *adopts* the previous
// prefix's snapshot instead: ingesting epoch p+1 appends the new
// epoch's per-actor column segments actor-major onto the prefix-p
// RecordBlock, union-merges only the new epoch's telescope and
// GreyNoise shards onto clones of the previous collectors, judges only
// the new epoch's records, and scatters only the new records into the
// derived per-vantage lists — O(epoch) per ingest, flat in the prefix
// length.
//
// Sharing contract: consecutive snapshots in the chain share column
// backing arrays (the new snapshot's columns are appends onto the
// previous snapshot's, in place whenever capacity allows). That is
// safe because the chain is linear — exactly one successor ever
// appends past a snapshot's length, Advance calls are serialized by
// the caller, and readers of an earlier snapshot never index past
// their own lengths. Published snapshots are never mutated.
//
// Correctness: a snapshot's rendered analyses must stay byte-identical
// to a batch Run truncated at the prefix bound. The chain holds the
// same records in (epoch, actor) order rather than the batch's
// (actor, emission) order, and nothing rendered depends on record
// order: every §3.2 verdict is a function of its own record
// (fillVerdicts), and every other consumer (views, sets, counters,
// sorted series) is order-independent. A new epoch therefore never
// changes the verdict of an already-assembled record, and the exploit
// set only grows.

// Incremental assembles the chain of prefix snapshots of one EpochSet
// in O(new epoch) per step. Not safe for concurrent use; the streaming
// engine serializes Advance under its ingest lock. Snapshots it
// returns are immutable and safe to read concurrently with later
// Advance calls.
type Incremental struct {
	es     *EpochSet
	prefix int    // epochs assembled so far
	tip    *Study // prefix-`prefix` snapshot (nil before the first Advance)

	// Full-week totals, for one-time preallocation so chain appends
	// stay in place.
	total     int     // records across all epochs
	credTotal int     // credential lists across all epochs
	vantCount []int32 // per-vantage record counts across all epochs

	// memo holds every (payload, transport, port) verdict judged so
	// far, so each key is judged once per chain.
	memo map[verdictKey]bool
}

// Incremental returns an assembler that materializes this epoch set's
// prefix snapshots one epoch at a time. The totals pass below is one
// scan of the generated columns; everything per-Advance is sized by
// the new epoch alone.
func (es *EpochSet) Incremental() *Incremental {
	inc := &Incremental{
		es:        es,
		vantCount: make([]int32, len(es.u.Targets())),
		memo:      map[verdictKey]bool{},
	}
	for _, sinks := range es.sinks {
		for _, sink := range sinks {
			inc.total += sink.blk.Len()
			inc.credTotal += len(sink.blk.CredLists)
			for _, vi := range sink.blk.Vantage {
				inc.vantCount[vi]++
			}
		}
	}
	return inc
}

// Prefix returns the number of epochs assembled so far.
func (inc *Incremental) Prefix() int { return inc.prefix }

// Tip returns the latest snapshot (nil before the first Advance).
func (inc *Incremental) Tip() *Study { return inc.tip }

// Repairs returns how many Advance calls had to rewrite
// already-assembled verdict state. It is always 0: a verdict depends
// on its own record alone, so a new epoch never changes one. The
// method stays for callers that report it.
func (inc *Incremental) Repairs() int { return 0 }

// Advance ingests the next epoch and returns its prefix snapshot,
// byte-identical in every rendered analysis to a batch Run truncated
// at the new prefix's bound. It errors once every epoch is assembled.
func (inc *Incremental) Advance() (*Study, error) {
	es := inc.es
	if inc.prefix >= es.eb.NumEpochs() {
		return nil, fmt.Errorf("core: all %d epochs already assembled", es.eb.NumEpochs())
	}
	sp := obs.StartStage(obs.StageIncrementalAssembly)
	defer sp.End()
	e := inc.prefix // 0-based index of the epoch being ingested
	newPrefix := inc.prefix + 1

	cfg := es.cfg
	if newPrefix < es.eb.NumEpochs() {
		cfg.WindowSec = es.eb.Bound(newPrefix)
	}
	s := &Study{
		Cfg:    cfg,
		U:      es.u,
		Censys: es.censys,
		Shodan: es.shodan,
		Actors: es.actors,
		IDS:    ids.DefaultEngine(),
	}

	if prev := inc.tip; prev == nil {
		// Chain start: empty collectors and full-week preallocated
		// columns, so every later append extends in place.
		s.Tel = telescope.New(cfg.TelescopeWatch...)
		s.GN = greynoise.NewService()
		for _, actor := range es.actors {
			if actor.Benign {
				s.GN.VetASN(actor.AS.ASN)
			}
		}
		s.blk.Grow(inc.total)
		s.blk.CredLists = make([][]netsim.Credential, 0, inc.credTotal)
		s.mal = make([]bool, 0, inc.total)
		s.byVantage = make([][]int32, len(inc.vantCount))
		for vi, n := range inc.vantCount {
			if n > 0 {
				s.byVantage[vi] = make([]int32, 0, n)
			}
		}
	} else {
		// Adopt the previous snapshot: collector clones take only the
		// new epoch's merges; column headers are copied and appended
		// past the previous lengths (in place — the backing arrays were
		// preallocated at chain start; the re-grow guard below and
		// fillVerdicts' grow are defensive for adopted columns that
		// arrived exactly sized).
		s.Tel = prev.Tel.Clone()
		s.GN = prev.GN.Clone()
		s.blk = prev.blk
		if remaining := inc.total - s.blk.Len(); remaining > 0 {
			s.blk.Grow(remaining)
		}
		s.mal = prev.mal
		s.byVantage = append([][]int32(nil), prev.byVantage...)
	}

	// Union-merge only the new epoch's collector shards and lay its
	// credential lists into the arena (per-sink index rebasing, as the
	// from-scratch merge does).
	credBase := make(map[*epochSink]int32, len(es.sinks))
	for _, sinks := range es.sinks {
		sink := sinks[e]
		s.Tel.Merge(sink.tel)
		s.GN.MergeDelta(sink.gn)
		credBase[sink] = int32(len(s.blk.CredLists))
		s.blk.CredLists = append(s.blk.CredLists, sink.blk.CredLists...)
	}

	// Append the new epoch's per-actor column segments actor-major: an
	// actor has exactly one run inside one epoch, so each is a single
	// range append.
	base := s.blk.Len()
	for i := range es.runs {
		run := &es.runs[i]
		if lo, hi := run.lo[e], run.hi[e]; hi > lo {
			s.blk.AppendRange(&run.sinks[e].blk, int(lo), int(hi), credBase[run.sinks[e]])
		}
	}
	n := s.blk.Len()

	// Judge and fill only the appended records; the chain's memo
	// carries every key judged in earlier epochs.
	s.fillVerdicts(base, inc.memo)

	// Derived columns: scatter only the new records into the
	// per-vantage lists and refresh the per-payload fact snapshot.
	for ri := base; ri < n; ri++ {
		vi := s.blk.Vantage[ri]
		s.byVantage[vi] = append(s.byVantage[vi], int32(ri))
	}
	s.payKey, s.payProto = payFactsSnapshot(netsim.PayloadCount())

	inc.tip, inc.prefix = s, newPrefix
	return s, nil
}
