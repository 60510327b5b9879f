package core

import (
	"fmt"
	"runtime"
	"testing"

	"cloudwatch/internal/netsim"
)

// TestStreamingSnapshotsMatchTruncatedRuns is the streaming
// equivalence matrix: for seeds 42/7 × years 2020–2022 × generation
// Workers 1/4/GOMAXPROCS, every epoch-prefix snapshot renders every
// table, figure, and ablation byte-identically to a fresh batch
// core.Run truncated to the same window, and the final snapshot
// byte-identically to the full-week run. The truncated references are
// built once per (seed, year) at the default worker count, so the
// comparison also crosses worker counts.
func TestStreamingSnapshotsMatchTruncatedRuns(t *testing.T) {
	seeds := []int64{42, 7}
	years := []int{2020, 2021, 2022}
	if testing.Short() {
		seeds = seeds[:1]
		years = []int{2021}
	}
	const epochs = 4
	workersList := []int{1, 4, runtime.GOMAXPROCS(0)}

	for _, seed := range seeds {
		for _, year := range years {
			t.Run(fmt.Sprintf("seed%d-year%d", seed, year), func(t *testing.T) {
				cfg := testConfig(seed, year)
				eb := netsim.NewEpochs(epochs)

				wants := make([]string, epochs+1)
				for p := 1; p <= epochs; p++ {
					bcfg := cfg
					if p < epochs {
						bcfg.WindowSec = eb.Bound(p)
					}
					batch, err := Run(bcfg)
					if err != nil {
						t.Fatal(err)
					}
					wants[p] = renderAllAnalyses(batch)
				}
				for p := 2; p <= epochs; p++ {
					if wants[p] == wants[p-1] {
						t.Fatalf("prefixes %d and %d render identically — the windows are not truncating", p-1, p)
					}
				}

				for _, workers := range workersList {
					scfg := cfg
					scfg.Workers = workers
					es, err := GenerateEpochs(scfg, epochs)
					if err != nil {
						t.Fatal(err)
					}
					for p := 1; p <= epochs; p++ {
						snap, err := es.Snapshot(p)
						if err != nil {
							t.Fatal(err)
						}
						if got := renderAllAnalyses(snap); got != wants[p] {
							t.Errorf("workers=%d prefix=%d: snapshot analyses differ from truncated batch run", workers, p)
						}
					}

					// The incremental chain (the path the streaming
					// engine's IngestNext takes) must match the same
					// truncated batch references; rendering after the
					// whole chain is built also checks that later
					// appends leave earlier snapshots untouched.
					inc := es.Incremental()
					chain := make([]*Study, 0, epochs)
					for p := 1; p <= epochs; p++ {
						snap, err := inc.Advance()
						if err != nil {
							t.Fatal(err)
						}
						chain = append(chain, snap)
					}
					for p := 1; p <= epochs; p++ {
						if got := renderAllAnalyses(chain[p-1]); got != wants[p] {
							t.Errorf("workers=%d prefix=%d: incremental snapshot differs from truncated batch run", workers, p)
						}
					}
				}
			})
		}
	}
}

// TestFinalSnapshotIsTheFullStudy deep-compares the final prefix
// snapshot against the full-week batch run — each vantage's records
// with their verdicts (as a multiset: the snapshot orders records
// actor by actor, epoch by epoch) and the collectors, not just
// rendered output.
func TestFinalSnapshotIsTheFullStudy(t *testing.T) {
	cfg := testConfig(42, 2021)
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	es, err := GenerateEpochs(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := es.Snapshot(5)
	if err != nil {
		t.Fatal(err)
	}
	assertStudiesEquivalent(t, want, got, "final snapshot")
}

// TestWindowedRunTruncates pins WindowSec semantics: a truncated run
// holds exactly the records of the full run whose study-second falls
// inside the window, in the full run's order, and its telescope saw
// no later packet either.
func TestWindowedRunTruncates(t *testing.T) {
	cfg := testConfig(7, 2021)
	full, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eb := netsim.NewEpochs(3)
	wcfg := cfg
	wcfg.WindowSec = eb.Bound(1)
	trunc, err := Run(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	if trunc.NumRecords() == 0 || trunc.NumRecords() >= full.NumRecords() {
		t.Fatalf("truncated run has %d records (full %d)", trunc.NumRecords(), full.NumRecords())
	}
	if trunc.Tel.Packets() >= full.Tel.Packets() {
		t.Fatalf("truncated telescope saw %d packets (full %d)", trunc.Tel.Packets(), full.Tel.Packets())
	}
	// The truncated record sequence is the full sequence filtered to
	// the window.
	i := 0
	trunc.EachRecord(func(_ int, rec netsim.Record) {
		if sec, _ := netsim.StudySeconds(rec.T); sec >= wcfg.WindowSec {
			t.Fatalf("truncated run kept a record at study-second %d (window %d)", sec, wcfg.WindowSec)
		}
		for i < full.NumRecords() {
			fr := full.RecordAt(i)
			i++
			if recordsEqual(rec, fr) {
				return
			}
		}
		t.Fatal("truncated records are not a subsequence of the full run")
	})
}

// TestGenerateEpochsValidation pins the API edges: truncation windows
// cannot combine with streaming, and snapshot prefixes are bounded.
func TestGenerateEpochsValidation(t *testing.T) {
	cfg := testConfig(42, 2021)
	cfg.WindowSec = 3600
	if _, err := GenerateEpochs(cfg, 4); err == nil {
		t.Fatal("GenerateEpochs accepted a truncation window")
	}
	cfg.WindowSec = 0
	es, err := GenerateEpochs(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{0, -1, 5} {
		if _, err := es.Snapshot(p); err == nil {
			t.Errorf("Snapshot(%d) accepted", p)
		}
	}
	// Epoch accounting covers every generated record.
	total := 0
	for e := 0; e < es.NumEpochs(); e++ {
		total += es.EpochRecords(e)
	}
	snap, err := es.Snapshot(4)
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumRecords() != total {
		t.Fatalf("epoch records sum to %d, final snapshot has %d", total, snap.NumRecords())
	}
}
