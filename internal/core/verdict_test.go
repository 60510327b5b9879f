package core

import (
	"fmt"
	"testing"

	"cloudwatch/internal/fingerprint"
	"cloudwatch/internal/scanners"
)

// assertVerdictsLocal checks the §3.2 verdict column against the
// definition applied to each record alone: no verdict may depend on
// record order or on the other records carrying the same payload.
func assertVerdictsLocal(t *testing.T, s *Study, label string) {
	t.Helper()
	if len(s.mal) != s.NumRecords() {
		t.Fatalf("%s: %d verdicts for %d records", label, len(s.mal), s.NumRecords())
	}
	for i := range s.mal {
		rec := s.RecordAt(i)
		if want := maliciousRecord(s.IDS, rec); s.mal[i] != want {
			t.Fatalf("%s: record %d (port %d/%v) verdict = %v, want %v", label, i, rec.Port, rec.Transport, s.mal[i], want)
		}
	}
}

// TestVerdictsAreLocal holds every assembly path to the per-record
// verdict: the batch Run, every prefix of the incremental chain
// (re-checked after the whole chain is built, since chain snapshots
// share columns), and every prefix of a restored epoch set.
func TestVerdictsAreLocal(t *testing.T) {
	const epochs = 4
	cfg := testConfig(42, 2021)
	batch, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertVerdictsLocal(t, batch, "batch")

	es, err := GenerateEpochs(cfg, epochs)
	if err != nil {
		t.Fatal(err)
	}
	inc := es.Incremental()
	chain := make([]*Study, epochs)
	for p := range chain {
		if chain[p], err = inc.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	for p, snap := range chain {
		assertVerdictsLocal(t, snap, fmt.Sprintf("chain prefix %d", p+1))
	}

	restored, err := RestoreEpochSet(cfg, es.Material())
	if err != nil {
		t.Fatal(err)
	}
	for p := 1; p <= epochs; p++ {
		snap, err := restored.Snapshot(p)
		if err != nil {
			t.Fatal(err)
		}
		assertVerdictsLocal(t, snap, fmt.Sprintf("restored prefix %d", p))
	}
}

// TestSMBNegotiateJudgedPerPort pins the case that makes verdict
// locality visible in Table 9: the SMB negotiate probe trips the
// "SMB negotiate on HTTP-assigned port" rule on port 80, and no rule
// on port 8080. Judged on its own port, each record keeps its port's
// verdict; a per-payload verdict would copy one port's answer to the
// other.
func TestSMBNegotiateJudgedPerPort(t *testing.T) {
	s := runTestStudy(t, 42, 2021)
	smb := scanners.ProbeID(fingerprint.SMB)
	counts := map[uint16]map[bool]int{80: {}, 8080: {}}
	for i := 0; i < s.NumRecords(); i++ {
		if s.blk.Pay[i] != smb || s.blk.Cred[i] >= 0 {
			continue
		}
		if byVerdict, ok := counts[s.blk.Port[i]]; ok {
			byVerdict[s.mal[i]]++
		}
	}
	if c := counts[80]; c[true] == 0 || c[false] != 0 {
		t.Errorf("port 80: %d malicious, %d benign SMB negotiate records; want all malicious", c[true], c[false])
	}
	if c := counts[8080]; c[false] == 0 || c[true] != 0 {
		t.Errorf("port 8080: %d malicious, %d benign SMB negotiate records; want all benign", c[true], c[false])
	}
}
