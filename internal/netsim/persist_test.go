package netsim

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"cloudwatch/internal/wire"
)

func persistTestBlock(t *testing.T) (RecordBlock, []PayloadID) {
	t.Helper()
	payA := InternPayload([]byte("persist-test-payload-A"))
	payB := InternPayload([]byte("persist-test-payload-B"))
	var b RecordBlock
	mk := func(src wire.Addr, port uint16, pay PayloadID, creds []Credential) {
		p := Probe{
			T:         StudyStart.Add(90 * time.Minute),
			Src:       src,
			ASN:       64500,
			Port:      port,
			Transport: wire.TCP,
			Pay:       pay,
		}
		b.Append(7, &p, pay, creds)
	}
	mk(101, 22, payA, []Credential{{Username: "root", Password: "toor"}, {Username: "admin", Password: ""}})
	mk(102, 80, payB, nil)
	mk(103, 445, 0, nil)
	mk(101, 23, payA, []Credential{{Username: "pi", Password: "raspberry"}})
	return b, []PayloadID{payA, payB}
}

func TestRecordBlockBinaryRoundTrip(t *testing.T) {
	b, pays := persistTestBlock(t)

	var dict []byte
	dict = AppendPayloadDict(dict)
	remap, err := DecodePayloadDict(wire.NewBinReader(dict))
	if err != nil {
		t.Fatal(err)
	}
	// Same process: re-interning maps every id to itself.
	for id := 1; id < PayloadCount(); id++ {
		if remap[id] != PayloadID(id) {
			t.Fatalf("same-process remap moved id %d -> %d", id, remap[id])
		}
	}

	enc := b.AppendBinary(nil)
	r := wire.NewBinReader(enc)
	got, err := DecodeRecordBlock(r, remap)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("decoder left %d bytes", r.Len())
	}
	if !reflect.DeepEqual(b, got) {
		t.Fatalf("round trip mismatch:\n%+v\nvs\n%+v", b, got)
	}
	if got.Pay[0] != pays[0] || got.Pay[1] != pays[1] {
		t.Fatal("payload ids lost")
	}
	// Reconstructed rows agree too (exercises cred arena + timestamps).
	for i := 0; i < b.Len(); i++ {
		if !reflect.DeepEqual(b.Record(i, "v"), got.Record(i, "v")) {
			t.Fatalf("record %d differs after round trip", i)
		}
	}
}

// TestDecodeRecordBlockRejectsCorruption verifies the decoder fails
// cleanly on out-of-dictionary payload ids, column length skew, and
// bad credential indexes instead of producing a corrupt block.
func TestDecodeRecordBlockRejectsCorruption(t *testing.T) {
	b, _ := persistTestBlock(t)
	remap, err := DecodePayloadDict(wire.NewBinReader(AppendPayloadDict(nil)))
	if err != nil {
		t.Fatal(err)
	}
	enc := b.AppendBinary(nil)

	// Truncations at a sample of offsets must error, never panic.
	for _, cut := range []int{0, 1, 5, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeRecordBlock(wire.NewBinReader(enc[:cut]), remap); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}

	// A payload id outside the dictionary is rejected.
	tiny := []PayloadID{0} // dictionary with no real ids
	if _, err := DecodeRecordBlock(wire.NewBinReader(enc), tiny); err == nil {
		t.Fatal("out-of-dictionary payload id decoded successfully")
	}
}

// TestRecordBlockGoldenLayout pins the serialized record block to
// exact bytes. Segments written by earlier builds must keep decoding,
// so the layout is part of the store format (segVersion): the record
// count, then each column as a u32 count plus fixed-width
// little-endian values, then the credential arena as nested
// length-prefixed strings.
func TestRecordBlockGoldenLayout(t *testing.T) {
	b := RecordBlock{
		Vantage:   []int32{3, 0, 7},
		Sec:       []int32{60, 61, 3600},
		Nsec:      []int32{5, 0, 999999999},
		Src:       []wire.Addr{0x0A000001, 0xC0A80102, 0xFFFFFFFF},
		ASN:       []int32{64500, 0, 15169},
		Port:      []uint16{22, 80, 0xBEEF},
		Transport: []wire.Transport{wire.TCP, wire.TCP, wire.UDP},
		Pay:       []PayloadID{1, 0, 2},
		Cred:      []int32{0, -1, 1},
		CredLists: [][]Credential{
			{{Username: "root", Password: "toor"}, {Username: "admin", Password: ""}},
			{{Username: "pi", Password: "raspberry"}},
		},
	}
	want := []byte{
		0x03, 0x00, 0x00, 0x00, // records
		0x03, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, // Vantage
		0x03, 0x00, 0x00, 0x00, 0x3c, 0x00, 0x00, 0x00, 0x3d, 0x00, 0x00, 0x00, 0x10, 0x0e, 0x00, 0x00, // Sec
		0x03, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0xc9, 0x9a, 0x3b, // Nsec
		0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x0a, 0x02, 0x01, 0xa8, 0xc0, 0xff, 0xff, 0xff, 0xff, // Src
		0x03, 0x00, 0x00, 0x00, 0xf4, 0xfb, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x41, 0x3b, 0x00, 0x00, // ASN
		0x03, 0x00, 0x00, 0x00, 0x16, 0x00, 0x50, 0x00, 0xef, 0xbe, // Port
		0x03, 0x00, 0x00, 0x00, 0x06, 0x06, 0x11, // Transport
		0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, // Pay
		0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00, 0x00, 0x00, // Cred
		0x02, 0x00, 0x00, 0x00, // credential lists
		0x02, 0x00, 0x00, 0x00, // list 0: two credentials
		0x04, 0x00, 0x00, 0x00, 'r', 'o', 'o', 't',
		0x04, 0x00, 0x00, 0x00, 't', 'o', 'o', 'r',
		0x05, 0x00, 0x00, 0x00, 'a', 'd', 'm', 'i', 'n',
		0x00, 0x00, 0x00, 0x00,
		0x01, 0x00, 0x00, 0x00, // list 1: one credential
		0x02, 0x00, 0x00, 0x00, 'p', 'i',
		0x09, 0x00, 0x00, 0x00, 'r', 'a', 's', 'p', 'b', 'e', 'r', 'r', 'y',
	}
	// Encoding after a prefix must not disturb the prefix.
	got := b.AppendBinary([]byte{0xAA})
	if got[0] != 0xAA || !bytes.Equal(got[1:], want) {
		t.Fatalf("record block layout drifted:\n got % x\nwant % x", got[1:], want)
	}
	r := wire.NewBinReader(want)
	dec, err := DecodeRecordBlock(r, []PayloadID{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 || !reflect.DeepEqual(dec, b) {
		t.Fatalf("golden bytes decode to %+v (%d bytes left)", dec, r.Len())
	}
}

func TestDecodePayloadDictRemapsAcrossProcesses(t *testing.T) {
	// Simulate a "foreign" process dictionary: entries the current
	// interner has never seen land at fresh ids, known ones dedup.
	var dict []byte
	dict = wire.AppendU32(dict, 2)
	dict = wire.AppendBytes(dict, []byte("persist-test-payload-A")) // known
	dict = wire.AppendBytes(dict, []byte("persist-test-payload-foreign"))
	remap, err := DecodePayloadDict(wire.NewBinReader(dict))
	if err != nil {
		t.Fatal(err)
	}
	if len(remap) != 3 || remap[0] != 0 {
		t.Fatalf("remap = %v", remap)
	}
	if want := InternPayload([]byte("persist-test-payload-A")); remap[1] != want {
		t.Fatalf("known payload remapped to %d, want %d", remap[1], want)
	}
	if got := PayloadBytes(remap[2]); string(got) != "persist-test-payload-foreign" {
		t.Fatalf("foreign payload remapped to %q", got)
	}
}
