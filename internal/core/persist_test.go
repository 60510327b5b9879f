package core

import (
	"fmt"
	"testing"

	"cloudwatch/internal/netsim"
)

// TestRestoreEpochSetByteIdentical is the persistence half of the
// streaming equivalence matrix: exporting a generated epoch set's
// material and restoring it into a fresh set must reproduce every
// prefix snapshot — tables, figures, and ablations — byte for byte,
// across seeds, years, and generation worker counts. The restored set
// is exercised through both Snapshot and the Incremental chain (the
// path the streaming engine takes on rehydration).
func TestRestoreEpochSetByteIdentical(t *testing.T) {
	type matrix struct {
		seed    int64
		year    int
		workers int
	}
	cells := []matrix{
		{42, 2021, 1},
		{42, 2021, 4},
		{7, 2020, 1},
		{7, 2020, 4},
	}
	if testing.Short() {
		cells = cells[:2]
	}
	const epochs = 3

	for _, cell := range cells {
		t.Run(fmt.Sprintf("seed%d-year%d-workers%d", cell.seed, cell.year, cell.workers), func(t *testing.T) {
			cfg := testConfig(cell.seed, cell.year)
			cfg.Workers = cell.workers
			es, err := GenerateEpochs(cfg, epochs)
			if err != nil {
				t.Fatal(err)
			}

			restored, err := RestoreEpochSet(cfg, es.Material())
			if err != nil {
				t.Fatal(err)
			}

			inc := restored.Incremental()
			for p := 1; p <= epochs; p++ {
				want, err := es.Snapshot(p)
				if err != nil {
					t.Fatal(err)
				}
				ref := renderAllAnalyses(want)

				snap, err := restored.Snapshot(p)
				if err != nil {
					t.Fatal(err)
				}
				if renderAllAnalyses(snap) != ref {
					t.Errorf("prefix %d: restored snapshot differs from original", p)
				}
				chained, err := inc.Advance()
				if err != nil {
					t.Fatal(err)
				}
				if renderAllAnalyses(chained) != ref {
					t.Errorf("prefix %d: restored incremental chain differs from original", p)
				}
			}
		})
	}
}

// TestRestoreEpochSetValidation feeds RestoreEpochSet structurally
// damaged material and expects a clean error for each mutation, never
// a panic or a silently wrong set.
func TestRestoreEpochSetValidation(t *testing.T) {
	cfg := testConfig(42, 2021)
	es, err := GenerateEpochs(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	pristine := es.Material()

	// Material shares the set's columns, so every mutation works on a
	// fresh shallow re-export.
	damage := map[string]func(m *StudyMaterial){
		"zero workers":        func(m *StudyMaterial) { m.Workers = 0 },
		"actor map short":     func(m *StudyMaterial) { m.ActorWorker = m.ActorWorker[:1] },
		"worker out of range": func(m *StudyMaterial) { m.ActorWorker[0] = int32(m.Workers) },
		"negative worker":     func(m *StudyMaterial) { m.ActorWorker[0] = -1 },
		"missing sink": func(m *StudyMaterial) {
			m.Epochs[0].Sinks = m.Epochs[0].Sinks[:0]
		},
		"nil collector": func(m *StudyMaterial) {
			sinks := append([]SinkMaterial(nil), m.Epochs[1].Sinks...)
			sinks[0].Tel = nil
			m.Epochs[1].Sinks = sinks
		},
		"run bounds short": func(m *StudyMaterial) {
			m.Epochs[0].Lo = m.Epochs[0].Lo[:0]
		},
		"run out of sink": func(m *StudyMaterial) {
			hi := append([]int32(nil), m.Epochs[0].Hi...)
			hi[0] = int32(m.Epochs[0].Sinks[m.ActorWorker[0]].Blk.Len()) + 1
			m.Epochs[0].Hi = hi
		},
		"inverted run": func(m *StudyMaterial) {
			lo := append([]int32(nil), m.Epochs[0].Lo...)
			lo[0] = m.Epochs[0].Hi[0] + 1
			m.Epochs[0].Lo = lo
		},
	}
	for name, mutate := range valueDamage(t, es.Material(), len(es.u.Targets())) {
		damage[name] = mutate
	}
	for name, mutate := range tilingDamage(t, es.Material()) {
		damage[name] = mutate
	}
	for name, mutate := range damage {
		t.Run(name, func(t *testing.T) {
			m := es.Material()
			mutate(m)
			if _, err := RestoreEpochSet(cfg, m); err == nil {
				t.Fatal("damaged material restored successfully")
			}
		})
	}

	// The pristine export still restores after all that: the mutations
	// above must not have reached shared state.
	if _, err := RestoreEpochSet(cfg, pristine); err != nil {
		t.Fatalf("pristine material no longer restores: %v", err)
	}

	// Empty material clashes with the minimum one-epoch partition. (A
	// nonzero truncation restores as a legitimately shorter set; the
	// store layer checks frame counts against its manifest.)
	m := es.Material()
	m.Epochs = m.Epochs[:0]
	if _, err := RestoreEpochSet(cfg, m); err == nil {
		t.Fatal("empty material restored successfully")
	}
}

// valueDamage returns value-domain mutations of well-shaped material:
// every column keeps its length, but a value leaves the domain the
// assembly indexes with. Before restore checked value domains, the
// vantage mutants panicked in the snapshot's derived index. Each
// mutation copies what it edits, so the shared columns of the
// generated set stay intact.
func valueDamage(t *testing.T, m *StudyMaterial, targets int) map[string]func(*StudyMaterial) {
	t.Helper()
	// w0 is a worker with records in epoch 0.
	w0 := -1
	for w, sm := range m.Epochs[0].Sinks {
		if sm.Blk.Len() > 0 && sm.Blk.CredLists != nil {
			w0 = w
			break
		}
	}
	if w0 < 0 {
		t.Fatal("material too small for value-domain mutations")
	}
	editBlock := func(m *StudyMaterial, edit func(b *netsim.RecordBlock)) {
		sinks := append([]SinkMaterial(nil), m.Epochs[0].Sinks...)
		blk := *sinks[w0].Blk
		edit(&blk)
		sinks[w0].Blk = &blk
		m.Epochs[0].Sinks = sinks
	}
	return map[string]func(*StudyMaterial){
		"vantage past targets": func(m *StudyMaterial) {
			editBlock(m, func(b *netsim.RecordBlock) {
				b.Vantage = append([]int32(nil), b.Vantage...)
				b.Vantage[0] = int32(targets)
			})
		},
		"negative vantage": func(m *StudyMaterial) {
			editBlock(m, func(b *netsim.RecordBlock) {
				b.Vantage = append([]int32(nil), b.Vantage...)
				b.Vantage[b.Len()-1] = -1
			})
		},
		"credential index below -1": func(m *StudyMaterial) {
			editBlock(m, func(b *netsim.RecordBlock) {
				b.Cred = append([]int32(nil), b.Cred...)
				b.Cred[0] = -2
			})
		},
		"credential index past arena": func(m *StudyMaterial) {
			editBlock(m, func(b *netsim.RecordBlock) {
				b.Cred = append([]int32(nil), b.Cred...)
				b.Cred[0] = int32(len(b.CredLists))
			})
		},
		"payload id past interner": func(m *StudyMaterial) {
			editBlock(m, func(b *netsim.RecordBlock) {
				b.Pay = append([]netsim.PayloadID(nil), b.Pay...)
				b.Pay[0] = netsim.PayloadID(netsim.PayloadCount())
			})
		},
		"column length skew": func(m *StudyMaterial) {
			editBlock(m, func(b *netsim.RecordBlock) { b.Port = b.Port[:len(b.Port)-1] })
		},
	}
}

// tilingDamage returns run-bound mutations that every per-run range
// check accepts — each run stays inside its sink — but that break the
// tiling generation guarantees: one actor's epoch-0 run is widened
// into its predecessor's records (restoring it would duplicate them)
// or narrowed past its first record (orphaning it).
func tilingDamage(t *testing.T, m *StudyMaterial) map[string]func(*StudyMaterial) {
	t.Helper()
	// actor has records in epoch 0 and does not start its sink.
	actor := -1
	for i := range m.ActorWorker {
		if e0 := &m.Epochs[0]; e0.Lo[i] > 0 && e0.Hi[i] > e0.Lo[i] {
			actor = i
			break
		}
	}
	if actor < 0 {
		t.Fatal("material too small for run-tiling mutations")
	}
	shiftLo := func(m *StudyMaterial, by int32) {
		lo := append([]int32(nil), m.Epochs[0].Lo...)
		lo[actor] += by
		m.Epochs[0].Lo = lo
	}
	return map[string]func(*StudyMaterial){
		"overlapping actor runs": func(m *StudyMaterial) { shiftLo(m, -1) },
		"gap between runs":       func(m *StudyMaterial) { shiftLo(m, 1) },
	}
}
