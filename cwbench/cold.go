package main

import (
	"fmt"
	"os"

	"cloudwatch"
	"cloudwatch/internal/core"
)

// studyConfig is the study every workload runs: the default 2021 study
// of the seed, split into the default 8 epochs.
func studyConfig(seed int64) cloudwatch.StreamConfig {
	return cloudwatch.StreamConfig{Study: cloudwatch.DefaultStudy(seed, 2021), Epochs: 8}
}

// reference is what the cold path is checked against: the batch study
// of the same seed, generated by cloudwatch.Run rather than the
// streaming engine.
type reference struct {
	records int
	table2  string
}

func newReference(cfg cloudwatch.StreamConfig) (reference, error) {
	study, err := cloudwatch.Run(cfg.Study)
	if err != nil {
		return reference{}, fmt.Errorf("batch reference: %w", err)
	}
	out, _ := core.RenderExperiment(study, "table2")
	return reference{records: study.NumRecords(), table2: out}, nil
}

// coldPass is one seed-to-results pass through the public API: open an
// empty store, ingest every epoch, render every experiment at the tip,
// then close, reopen, recover and render again. Its times are
// steal-free (see clock.go).
type coldPass struct {
	firstRenderMS float64 // open → epoch 1 ingested → table2 at prefix 1
	ingestS       float64 // open → last epoch ingested
	studyS        float64 // open → all experiments rendered at the tip
	recoverMS     float64 // reopen → recovered → table2 at the tip
	stealShare    float64 // of the VM's busy CPU time over the pass
	records       int
	ops           int
	// eng is the recovered engine, left open for the caller.
	eng *cloudwatch.StreamEngine
}

// readTable renders one experiment of an ingested prefix through the
// engine's snapshot, as a library user reads results.
func readTable(eng *cloudwatch.StreamEngine, prefix int, experiment string) (string, error) {
	snap, err := eng.Snapshot(prefix)
	if err != nil {
		return "", err
	}
	out, ok := core.RenderExperiment(snap, experiment)
	if !ok {
		return "", fmt.Errorf("unknown experiment %q", experiment)
	}
	return out, nil
}

// runColdPass runs one pass in a fresh store directory dir and checks
// it against ref: record count, the recovered engine's state, and the
// table2 render before and after the restart. The directory is left
// for the caller to remove once the returned engine is closed.
func runColdPass(cfg cloudwatch.StreamConfig, dir string, ref reference) (*coldPass, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	p := &coldPass{}
	read := func(eng *cloudwatch.StreamEngine, prefix int, experiment string) (string, error) {
		p.ops++
		return readTable(eng, prefix, experiment)
	}
	ingest := func(eng *cloudwatch.StreamEngine, want int) error {
		prefix, ok, err := eng.IngestNext()
		p.ops++
		if err != nil {
			return err
		}
		if !ok || prefix != want {
			return fmt.Errorf("ingest reached prefix %d (ok=%v), want %d", prefix, ok, want)
		}
		return nil
	}

	t0 := markNow()
	eng, err := cloudwatch.OpenStream(cfg, dir)
	p.ops++
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	if err := ingest(eng, 1); err != nil {
		eng.Close()
		return nil, err
	}
	if _, err := read(eng, 1, "table2"); err != nil {
		eng.Close()
		return nil, err
	}
	p.firstRenderMS = t0.since() * 1000
	n := eng.NumEpochs()
	for e := 2; e <= n; e++ {
		if err := ingest(eng, e); err != nil {
			eng.Close()
			return nil, err
		}
	}
	p.ingestS = t0.since()
	var tip string
	for _, name := range core.ExperimentNames() {
		out, err := read(eng, n, name)
		if err != nil {
			eng.Close()
			return nil, err
		}
		if name == "table2" {
			tip = out
		}
	}
	p.studyS = t0.since()
	for e := 0; e < n; e++ {
		p.records += eng.EpochRecords(e)
	}
	if err := eng.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}

	t1 := markNow()
	eng, err = cloudwatch.OpenStream(cfg, dir)
	p.ops++
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	recovered, err := read(eng, n, "table2")
	if err != nil {
		eng.Close()
		return nil, fmt.Errorf("read after recovery: %w", err)
	}
	end := markNow()
	p.recoverMS = t1.until(end) * 1000
	p.stealShare = t0.stealShare(end)
	p.eng = eng

	switch {
	case !eng.Recovered() || eng.Ingested() != n:
		err = fmt.Errorf("reopened engine recovered=%v at prefix %d, want a recovered engine at %d", eng.Recovered(), eng.Ingested(), n)
	case p.records != ref.records:
		err = fmt.Errorf("streamed study has %d records, batch study of the seed has %d", p.records, ref.records)
	case tip != ref.table2:
		err = fmt.Errorf("table2 at the tip differs from the batch study's")
	case recovered != tip:
		err = fmt.Errorf("table2 after recovery differs from the render before the restart")
	}
	if err != nil {
		eng.Close()
		return nil, err
	}
	return p, nil
}
