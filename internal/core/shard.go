package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"cloudwatch/internal/greynoise"
	"cloudwatch/internal/honeypot"
	"cloudwatch/internal/netsim"
	"cloudwatch/internal/scanners"
	"cloudwatch/internal/telescope"
	"cloudwatch/internal/wire"
)

// shard is one worker's private slice of the study pipeline: its own
// telescope collector, GreyNoise delta, and record block. Workers
// never share mutable state; everything a shard accumulates is either
// a set union or an integer-count sum, so the post-run merge reaches
// the same state as serial dispatch regardless of how actors were
// scheduled across workers.
//
// Records are born columnar: dispatch appends the probe's scalar
// columns (interned vantage id, study seconds, interned payload id,
// credential-arena index) in one pass. The §3.2 verdict column is
// filled by the merge (see mergeShards), which anchors each payload's
// verdict at its first occurrence in canonical record order — the
// exact verdict serial dispatch memoized — so the result is
// byte-identical for every worker count. (Keying the memo per shard,
// as the pre-columnar pipeline did, made worker scheduling leak into
// the output whenever a payload's verdict differed across destination
// ports.)
type shard struct {
	dc     dstCache
	window int32 // drop probes at study-second >= window (0 = keep all)
	tel    *telescope.Collector
	gn     *greynoise.Delta
	blk    netsim.RecordBlock
}

// dstCache memoizes the per-destination routing decision — telescope
// membership and the target lookup — across the runs of probes the
// attempt and port loops emit to one address. Shared by the batch
// shard and the streaming engine's epoch shards.
type dstCache struct {
	u          *netsim.Universe
	lastDst    wire.Addr
	lastDstOK  bool
	lastTel    bool
	lastTarget *netsim.Target
	lastVi     int32
}

// resolve classifies a probe's destination: telescope space, a
// monitored target (with its interned vantage id), or unmonitored
// space (tel=false, t=nil).
func (c *dstCache) resolve(dst wire.Addr) (tel bool, t *netsim.Target, vi int32) {
	if !c.lastDstOK || dst != c.lastDst {
		c.lastDst, c.lastDstOK = dst, true
		c.lastTel = c.u.InTelescope(dst)
		c.lastTarget, c.lastVi = nil, 0
		if !c.lastTel {
			c.lastTarget, c.lastVi, _ = c.u.ByIPIndexed(dst)
		}
	}
	return c.lastTel, c.lastTarget, c.lastVi
}

func newShard(s *Study) *shard {
	return &shard{
		dc:     dstCache{u: s.U},
		window: s.Cfg.WindowSec,
		tel:    telescope.New(s.Cfg.TelescopeWatch...),
		gn:     greynoise.NewDelta(),
	}
}

// dispatch routes one probe to the shard's collectors — the parallel
// counterpart of the serial per-probe pipeline: telescope probes are
// aggregated in place, honeypot probes become record-column rows, and
// every collected source feeds the GreyNoise delta. Probes outside a
// truncation window vanish before any collector sees them.
//
// The probe is borrowed for the duration of the call (the generators
// reuse one probe variable per scan — see scanners.Actor.Run); dispatch
// copies every field it keeps into columns, so nothing here retains p.
func (sh *shard) dispatch(p *netsim.Probe) {
	if sh.window > 0 {
		if sec, _ := netsim.StudySeconds(p.T); sec >= sh.window {
			return
		}
	}
	tel, t, vi := sh.dc.resolve(p.Dst)
	if tel {
		sh.tel.Observe(p)
		sh.gn.Observe(p.Src)
		return
	}
	if t == nil {
		return // probe to unmonitored space: invisible to the study
	}
	pay, creds, ok := honeypot.Collect(t, p)
	if !ok {
		return
	}
	sh.gn.Observe(p.Src)
	sh.blk.Append(vi, p, pay, creds)
}

// span is the record range one actor produced within its shard's
// block.
type span struct {
	sh     *shard
	lo, hi int
}

// runActors drives the actor population through `workers` pipeline
// workers and merges the shards into the study in canonical order.
// Each actor draws from its own seeded random streams and runs on
// exactly one worker, so its probe sequence — and therefore its record
// range — is independent of scheduling. Record columns are reassembled
// actor-major (the order the serial loop produced) and telescope and
// GreyNoise shards merge commutatively, so the result is
// byte-identical for every worker count.
func (s *Study) runActors(ctx *scanners.Context, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(s.Actors) {
		workers = len(s.Actors)
	}
	if workers < 1 {
		workers = 1
	}

	spans := make([]span, len(s.Actors))
	shards := make([]*shard, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		sh := newShard(s)
		shards[w] = sh
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.Actors) {
					return
				}
				lo := sh.blk.Len()
				s.Actors[i].Run(ctx, sh.dispatch)
				spans[i] = span{sh, lo, sh.blk.Len()}
			}
		}()
	}
	wg.Wait()
	s.mergeShards(shards, spans)
}

// mergeShards reassembles the per-shard columns into the study in
// canonical actor order and finalizes every derived column — verdict,
// per-payload facts, per-vantage record lists — so the derived index
// is complete when Run returns, with no post-hoc scan of the records.
func (s *Study) mergeShards(shards []*shard, spans []span) {
	total := 0
	for _, sp := range spans {
		total += sp.hi - sp.lo
	}

	if len(shards) == 1 {
		// Serial pipeline: the single shard's block already is the
		// canonical actor-major order — adopt it without copying.
		s.blk = shards[0].blk
		shards[0].blk = netsim.RecordBlock{}
	} else {
		// Credential arenas concatenate in shard order; each shard's
		// record columns rebase their arena indexes by its offset.
		credBase := make(map[*shard]int32, len(shards))
		credTotal := 0
		for _, sh := range shards {
			credBase[sh] = int32(credTotal)
			credTotal += len(sh.blk.CredLists)
		}

		s.blk.Grow(total)
		s.blk.CredLists = make([][]netsim.Credential, 0, credTotal)
		for _, sh := range shards {
			s.blk.CredLists = append(s.blk.CredLists, sh.blk.CredLists...)
		}
		for _, sp := range spans {
			s.blk.AppendRange(&sp.sh.blk, sp.lo, sp.hi, credBase[sp.sh])
		}
	}

	for _, sh := range shards {
		s.Tel.Merge(sh.tel)
		s.GN.MergeDelta(sh.gn)
	}

	s.buildVerdicts()
	s.buildDerived(netsim.PayloadCount())
}

// buildVerdicts computes the §3.2 verdict column. Each distinct
// payload is judged exactly once per study, against the transport and
// port of its first occurrence in canonical record order — precisely
// the verdict the serial pipeline's payload-keyed memo captured — and
// every record carrying the payload inherits it. Credential records
// are malicious by definition; payloadless records are benign. The
// sources of malicious records feed the GreyNoise exploit set here
// (the serial pipeline did it inline at dispatch; doing it after the
// canonical verdicts are fixed keeps the exploit set
// schedule-independent too).
func (s *Study) buildVerdicts() {
	n := s.blk.Len()
	payCount := netsim.PayloadCount()

	// First occurrence of each payload in canonical order, counting
	// only credential-free records: the serial memo this reproduces was
	// consulted after the creds short-circuit, so a record carrying
	// both a payload and credentials (EmulateAuth collectors) never
	// anchored a verdict.
	firstRec := make([]int32, payCount)
	for i := range firstRec {
		firstRec[i] = -1
	}
	var distinct []netsim.PayloadID
	for i := 0; i < n; i++ {
		if s.blk.Cred[i] >= 0 {
			continue
		}
		if pay := s.blk.Pay[i]; pay != 0 && firstRec[pay] < 0 {
			firstRec[pay] = int32(i)
			distinct = append(distinct, pay)
		}
	}

	// Judge each distinct payload in parallel: the verdict is a pure
	// function of (payload, anchor transport, anchor port), so the
	// fan-out is order-independent.
	s.malByPay = make([]int8, payCount)
	for i := range s.malByPay {
		s.malByPay[i] = -1
	}
	ParallelEach(len(distinct), func(k int) {
		pay := distinct[k]
		ri := firstRec[pay]
		v := int8(0)
		if s.IDS.Malicious(s.blk.Transport[ri].String(), s.blk.Port[ri], netsim.PayloadBytes(pay)) {
			v = 1
		}
		s.malByPay[pay] = v
	})

	// Fill the verdict column and the exploit set, in parallel chunks
	// with per-chunk GreyNoise deltas (set unions commute).
	s.mal = make([]bool, n)
	chunks := (n + verdictChunk - 1) / verdictChunk
	var gnMu sync.Mutex
	ParallelEach(chunks, func(c int) {
		lo, hi := c*verdictChunk, (c+1)*verdictChunk
		if hi > n {
			hi = n
		}
		d := greynoise.NewDelta()
		for i := lo; i < hi; i++ {
			m := s.blk.Cred[i] >= 0
			if !m {
				if pay := s.blk.Pay[i]; pay != 0 {
					m = s.malByPay[pay] == 1
				}
			}
			if m {
				s.mal[i] = true
				d.ObserveExploit(s.blk.Src[i])
			}
		}
		gnMu.Lock()
		s.GN.MergeDelta(d)
		gnMu.Unlock()
	})
}

// verdictChunk is the number of records per parallel verdict-fill
// chunk: large enough to amortize a chunk's GreyNoise delta, small
// enough to load-balance.
const verdictChunk = 65536

// ParallelEach runs fn(i) for every i in [0, n) across up to
// GOMAXPROCS goroutines and waits for completion. fn must be safe to
// call concurrently for distinct i. Used to fan out the read side of
// the pipeline (per-vantage record and view building) and the store's
// per-epoch frame encode and decode.
func ParallelEach(n int, fn func(int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
