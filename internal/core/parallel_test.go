package core

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"testing"

	"cloudwatch/internal/netsim"
)

// runTestStudyWorkers runs the scaled-down test study with an explicit
// worker count.
func runTestStudyWorkers(t *testing.T, seed int64, workers int) *Study {
	t.Helper()
	cfg := testConfig(seed, 2021)
	cfg.Workers = workers
	s, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func recordsEqual(a, b netsim.Record) bool {
	if a.Vantage != b.Vantage || !a.T.Equal(b.T) || a.Src != b.Src ||
		a.ASN != b.ASN || a.Port != b.Port || a.Transport != b.Transport ||
		a.Handshake != b.Handshake {
		return false
	}
	if !bytes.Equal(a.Payload, b.Payload) {
		return false
	}
	if len(a.Creds) != len(b.Creds) {
		return false
	}
	for i := range a.Creds {
		if a.Creds[i] != b.Creds[i] {
			return false
		}
	}
	return true
}

// assertStudiesIdentical compares everything the analysis pipeline
// consumes: the full record sequence, the per-vantage indexes, and the
// telescope/GreyNoise counters.
func assertStudiesIdentical(t *testing.T, want, got *Study, label string) {
	t.Helper()
	if want.NumRecords() != got.NumRecords() {
		t.Fatalf("%s: record counts differ: %d vs %d", label, want.NumRecords(), got.NumRecords())
	}
	for i := 0; i < want.NumRecords(); i++ {
		if !recordsEqual(want.RecordAt(i), got.RecordAt(i)) {
			t.Fatalf("%s: record %d differs:\n  want %+v\n  got  %+v",
				label, i, want.RecordAt(i), got.RecordAt(i))
		}
	}

	for vi, tgt := range want.U.Targets() {
		wi, gi := want.byVantage[vi], got.byVantage[vi]
		if len(wi) != len(gi) {
			t.Fatalf("%s: vantage %s index lengths differ: %d vs %d", label, tgt.ID, len(wi), len(gi))
		}
		for j := range wi {
			if wi[j] != gi[j] {
				t.Fatalf("%s: vantage %s index %d = %d, want %d", label, tgt.ID, j, gi[j], wi[j])
			}
		}
	}
	assertCollectorsIdentical(t, want, got, label)
}

// assertStudiesEquivalent compares two studies up to record order:
// per vantage, the same multiset of (record, verdict) pairs, plus
// identical telescope/GreyNoise counters. Epoch snapshots hold the
// records of the batch study in another order, so they are compared
// with it this way; batch studies compare exactly
// (assertStudiesIdentical).
func assertStudiesEquivalent(t *testing.T, want, got *Study, label string) {
	t.Helper()
	if want.NumRecords() != got.NumRecords() {
		t.Fatalf("%s: record counts differ: %d vs %d", label, want.NumRecords(), got.NumRecords())
	}
	for vi, tgt := range want.U.Targets() {
		w, g := vantageMultiset(want, vi), vantageMultiset(got, vi)
		if len(w) != len(g) {
			t.Fatalf("%s: vantage %s holds %d records, want %d", label, tgt.ID, len(g), len(w))
		}
		for j := range w {
			if w[j] != g[j] {
				t.Fatalf("%s: vantage %s record multisets differ:\n  want %s\n  got  %s", label, tgt.ID, w[j], g[j])
			}
		}
	}
	assertCollectorsIdentical(t, want, got, label)
}

// vantageMultiset renders vantage vi's (record, verdict) pairs as
// sorted strings, so equal multisets compare equal element-wise.
func vantageMultiset(s *Study, vi int) []string {
	idxs := s.byVantage[vi]
	out := make([]string, len(idxs))
	for j, ri := range idxs {
		out[j] = fmt.Sprintf("%+v mal=%v", s.RecordAt(int(ri)), s.mal[ri])
	}
	sort.Strings(out)
	return out
}

// assertCollectorsIdentical compares the telescope and GreyNoise
// counters the analyses read.
func assertCollectorsIdentical(t *testing.T, want, got *Study, label string) {
	t.Helper()
	if want.Tel.Packets() != got.Tel.Packets() {
		t.Errorf("%s: telescope packets = %d, want %d", label, got.Tel.Packets(), want.Tel.Packets())
	}
	for _, port := range want.Tel.WatchedPorts() {
		if w, g := want.Tel.UniqueSourceCount(port), got.Tel.UniqueSourceCount(port); w != g {
			t.Errorf("%s: port %d unique srcs = %d, want %d", label, port, g, w)
		}
	}
	wAll, gAll := want.Tel.ASFrequenciesAll(), got.Tel.ASFrequenciesAll()
	if len(wAll) != len(gAll) {
		t.Errorf("%s: telescope AS table sizes differ: %d vs %d", label, len(wAll), len(gAll))
	}
	for k, v := range wAll {
		if gAll[k] != v {
			t.Errorf("%s: telescope AS %q = %v, want %v", label, k, gAll[k], v)
		}
	}

	wSeen, wExp, wVet := want.GN.Stats()
	gSeen, gExp, gVet := got.GN.Stats()
	if wSeen != gSeen || wExp != gExp || wVet != gVet {
		t.Errorf("%s: GreyNoise stats = %d,%d,%d, want %d,%d,%d",
			label, gSeen, gExp, gVet, wSeen, wExp, wVet)
	}
}

// TestStudyParallelDeterministic is the central guarantee of the
// sharded pipeline: the same seed produces byte-identical studies at
// every worker count.
func TestStudyParallelDeterministic(t *testing.T) {
	serial := runTestStudyWorkers(t, 7, 1)
	if serial.NumRecords() == 0 {
		t.Fatal("serial study collected nothing")
	}
	counts := []int{4, runtime.GOMAXPROCS(0)}
	for _, workers := range counts {
		par := runTestStudyWorkers(t, 7, workers)
		assertStudiesIdentical(t, serial, par, "workers="+strconv.Itoa(workers))
	}
}

// TestStudyDefaultWorkersMatchSerial covers the default path
// (Workers=0 → GOMAXPROCS).
func TestStudyDefaultWorkersMatchSerial(t *testing.T) {
	serial := runTestStudyWorkers(t, 11, 1)
	auto := runTestStudyWorkers(t, 11, 0)
	assertStudiesIdentical(t, serial, auto, "workers=auto")
}

// TestStudyMoreWorkersThanActors exercises the clamp when the
// population is smaller than the requested worker count.
func TestStudyMoreWorkersThanActors(t *testing.T) {
	serial := runTestStudyWorkers(t, 3, 1)
	over := runTestStudyWorkers(t, 3, 10_000)
	assertStudiesIdentical(t, serial, over, "workers=10000")
}

// renderAllAnalyses runs every cached analysis path — all tables, the
// figure, and both ablations — and concatenates the rendered output.
func renderAllAnalyses(s *Study) string {
	return s.Table1().Render() + s.Table2().Render() + s.Table3().Render() +
		s.Table4().Render() + s.Table5().Render() + s.Table6().Render() +
		s.Table7().Render() + s.Table8().Render() + s.Table9().Render() +
		s.Table10().Render() + s.Table11().Render() + s.Figure1().Render() +
		s.AblationTopK().Render() + s.AblationMedianFilter().Render()
}

// TestParallelTablesMatchSerial spot-checks that downstream experiment
// drivers see identical inputs: the rendered neighborhood table is the
// same whichever pipeline built the study.
func TestParallelTablesMatchSerial(t *testing.T) {
	serial := runTestStudyWorkers(t, 7, 1)
	par := runTestStudyWorkers(t, 7, 4)
	if w, g := serial.Table2().Render(), par.Table2().Render(); w != g {
		t.Errorf("Table2 differs between worker counts:\nserial:\n%s\nparallel:\n%s", w, g)
	}
}

// TestCachedAnalysesDeterministicAcrossWorkers extends the byte-
// identical guarantee to the cached analysis layer: every table,
// figure, and ablation renders identically at Workers 1, 4, and
// GOMAXPROCS, and re-rendering from the warm cache reproduces the
// first (cold) render exactly.
func TestCachedAnalysesDeterministicAcrossWorkers(t *testing.T) {
	serial := runTestStudyWorkers(t, 7, 1)
	want := renderAllAnalyses(serial)
	if again := renderAllAnalyses(serial); again != want {
		t.Fatal("warm-cache re-render differs from cold render on the same study")
	}
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		par := runTestStudyWorkers(t, 7, workers)
		if got := renderAllAnalyses(par); got != want {
			t.Fatalf("analyses differ between Workers=1 and Workers=%d", workers)
		}
	}
}

// TestConcurrentViewBuilding hammers the read side from many
// goroutines: VantageView and RegionRecords share the study's verdict
// memo and must be race-free after Run.
func TestConcurrentViewBuilding(t *testing.T) {
	s := runTestStudy(t, 42, 2021)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, region := range s.U.Regions() {
				s.RegionRecords(region)
				for _, tgt := range s.U.Region(region) {
					s.VantageView(tgt.ID, SliceAnyAll)
				}
			}
		}()
	}
	wg.Wait()
}

// TestRegionRecordsMatchVantageRecords checks the fanned-out gather
// returns exactly the per-vantage record lists.
func TestRegionRecordsMatchVantageRecords(t *testing.T) {
	s := runTestStudy(t, 42, 2021)
	for _, region := range s.U.Regions() {
		byID := s.RegionRecords(region)
		targets := s.U.Region(region)
		if len(byID) != len(targets) {
			t.Fatalf("region %s: %d entries, want %d", region, len(byID), len(targets))
		}
		for _, tgt := range targets {
			got, want := byID[tgt.ID], s.VantageRecords(tgt.ID)
			if len(got) != len(want) {
				t.Fatalf("region %s vantage %s: %d records, want %d", region, tgt.ID, len(got), len(want))
			}
			for i := range want {
				if !recordsEqual(got[i], want[i]) {
					t.Fatalf("region %s vantage %s record %d differs", region, tgt.ID, i)
				}
			}
		}
	}
}
