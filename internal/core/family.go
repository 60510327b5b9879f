package core

import (
	"sync"

	"cloudwatch/internal/stats"
)

// This file is the batched §3.3 family runner: every experiment that
// compares vantage (or group) views pairwise — Tables 2/4/5/7/10 and
// the ablations — declares its family (sides + canonical pair order)
// and gets back the full comparison family, computed through the
// stats.BatchSet engine, sharded across workers in canonical pair
// order, and memoized per (family, slice, characteristic, K) so
// repeat analyses (appendix reruns, ablations sharing Table 2's
// neighborhoods, steady-state benchmarks) reuse the finished family.

// famSide is one comparison side of a family: the prepared top-K
// table for the family's characteristic plus the binary
// malicious/benign split used by CharFracMalicious.
type famSide struct {
	sum           stats.TableSummary
	mal, ben, tot float64
}

// famJob is a fully-specified family: sides in canonical order, the
// pair list as indexes into sides in canonical comparison order, and
// one label per pair.
type famJob struct {
	sides  []famSide
	pairs  [][2]int
	labels []string
}

// familyResult is a finished family plus the per-pair contingency
// stats the top-K ablation reads: union width and near-zero cells,
// recorded for testable pairs (width > 0 iff the pair was testable on
// a top-K characteristic). Results are shared across callers and must
// be treated as read-only.
type familyResult struct {
	fam   *Family
	width []int
	zeros []int
}

// famKey identifies one memoized family.
type famKey struct {
	name  string
	slice ProtocolSlice
	char  Characteristic
	k     int
}

// famEntry is one family cache slot; the per-entry once lets distinct
// families build in parallel while each builds exactly once.
type famEntry struct {
	once sync.Once
	res  *familyResult
}

// pairwiseFamily returns the memoized comparison family for
// (name, slice, char, k), building it at most once via build. The
// build callback only runs on a cache miss, so callers must derive
// per-pair metadata (region refs, geo groups) from the same canonical
// order they would hand to the builder, not from builder side effects.
func (s *Study) pairwiseFamily(name string, slice ProtocolSlice, char Characteristic, k int, build func() famJob) *familyResult {
	key := famKey{name, slice, char, k}
	s.famMu.Lock()
	if s.famCache == nil {
		s.famCache = map[famKey]*famEntry{}
	}
	e, ok := s.famCache[key]
	if !ok {
		e = &famEntry{}
		s.famCache[key] = e
	}
	s.famMu.Unlock()
	e.once.Do(func() { e.res = runFamily(build(), char, k) })
	return e.res
}

// famChunk is the number of pairs one worker processes per scratch
// comparer: large enough to amortize the comparer's buffers, small
// enough to load-balance families of a few hundred pairs.
const famChunk = 64

// runFamily executes a family job: a shared BatchSet for the whole
// family (categories interned once, each side's top-K ranked once),
// pair comparisons fanned out across workers in canonical order with
// per-worker scratch. Every PairResult equals what the naive per-pair
// Compare/CompareTopK loop produces.
func runFamily(job famJob, char Characteristic, k int) *familyResult {
	n := len(job.pairs)
	res := &familyResult{
		fam:   &Family{Pairs: make([]PairResult, n)},
		width: make([]int, n),
		zeros: make([]int, n),
	}
	if char == CharFracMalicious {
		ParallelEach(n, func(i int) {
			p := job.pairs[i]
			res.fam.Pairs[i] = binaryPair(job.labels[i], job.sides[p[0]], job.sides[p[1]])
		})
		return res
	}

	sums := make([]stats.TableSummary, len(job.sides))
	for i, side := range job.sides {
		sums[i] = side.sum
	}
	set := stats.NewBatchSet(k, sums)
	chunks := (n + famChunk - 1) / famChunk
	ParallelEach(chunks, func(c int) {
		lo, hi := c*famChunk, (c+1)*famChunk
		if hi > n {
			hi = n
		}
		pc := set.Comparer()
		for i := lo; i < hi; i++ {
			p := job.pairs[i]
			pr := PairResult{Label: job.labels[i]}
			if set.Total(p[0]) == 0 || set.Total(p[1]) == 0 {
				res.fam.Pairs[i] = pr // untestable (ErrNoData in the naive path)
				continue
			}
			r, w, z, err := pc.CompareCounted(p[0], p[1])
			pr.Result, pr.OK = r, err == nil
			res.fam.Pairs[i] = pr
			res.width[i], res.zeros[i] = w, z
		}
	})
	return res
}

// binaryPair wraps compareFracMalicious — Compare's CharFracMalicious
// path — as one family pair result.
func binaryPair(label string, a, b famSide) PairResult {
	r, err := compareFracMalicious(a.mal, a.ben, a.tot, b.mal, b.ben, b.tot)
	return PairResult{Label: label, Result: r, OK: err == nil}
}

// viewSide prepares one view as a family side for a characteristic.
func (s *Study) viewSide(v *View, char Characteristic) famSide {
	side := famSide{mal: v.Malicious, ben: v.Benign, tot: v.Total}
	if char != CharFracMalicious {
		side.sum = s.viewSummary(v, char)
	}
	return side
}

// viewSides prepares several views, preserving order.
func (s *Study) viewSides(views []*View, char Characteristic) []famSide {
	sides := make([]famSide, len(views))
	for i, v := range views {
		sides[i] = s.viewSide(v, char)
	}
	return sides
}

// freqFor selects a view's frequency table for a top-K
// characteristic.
func freqFor(v *View, char Characteristic) stats.Freq {
	switch char {
	case CharTopAS:
		return v.AS
	case CharTopUsernames:
		return v.Usernames
	case CharTopPasswords:
		return v.Passwords
	case CharTopPayloads:
		return v.Payloads
	default:
		return nil
	}
}

// regionPairJob builds a family job from region-name pairs: each
// distinct region becomes one side (its view fetched via group once,
// in first-appearance order), pairs index into those sides, and
// labels read "a vs b".
func regionPairJob(s *Study, pairs [][2]string, char Characteristic, group func(region string) *View) famJob {
	idx := map[string]int{}
	var views []*View
	sideOf := func(region string) int {
		i, ok := idx[region]
		if !ok {
			i = len(views)
			idx[region] = i
			views = append(views, group(region))
		}
		return i
	}
	job := famJob{}
	for _, p := range pairs {
		a, b := sideOf(p[0]), sideOf(p[1])
		job.pairs = append(job.pairs, [2]int{a, b})
		job.labels = append(job.labels, p[0]+" vs "+p[1])
	}
	job.sides = s.viewSides(views, char)
	return job
}

// summKey identifies one memoized view summary.
type summKey struct {
	view *View
	char Characteristic
}

// summEntry is one summary cache slot.
type summEntry struct {
	once sync.Once
	sum  stats.TableSummary
}

// viewSummary returns the memoized TableSummary of one view's
// characteristic table: the table ranked and totaled exactly once per
// (view, characteristic), no matter how many families compare it. The
// cache lives beside the view cache (views are memoized per
// (vantage|region, slice), so the pointer is a stable identity) rather
// than on the View itself, keeping views plain data.
func (s *Study) viewSummary(v *View, char Characteristic) stats.TableSummary {
	key := summKey{v, char}
	s.summMu.Lock()
	if s.summCache == nil {
		s.summCache = map[summKey]*summEntry{}
	}
	e, ok := s.summCache[key]
	if !ok {
		e = &summEntry{}
		s.summCache[key] = e
	}
	s.summMu.Unlock()
	e.once.Do(func() { e.sum = stats.Summarize(freqFor(v, char)) })
	return e.sum
}
