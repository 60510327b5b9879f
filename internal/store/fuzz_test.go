package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"cloudwatch/internal/core"
	"cloudwatch/internal/greynoise"
	"cloudwatch/internal/netsim"
	"cloudwatch/internal/telescope"
	"cloudwatch/internal/wire"
)

// Native fuzz targets for every decoder of the segment format: the
// wire slice reads, the three sink codecs, and the segment frame scan
// plus study decode. They live here, not beside each codec, because
// every target is seeded from a real tiny segment (tinyConfig) and
// only this package can both generate a study and see the segment
// internals. The shared properties: a decoder returns an error and
// never panics on any input, and whatever it accepts re-encodes to
// something that decodes to the same value.
//
// Run one target at a time, e.g.
//
//	go test -run '^$' -fuzz '^FuzzDecodeRecordBlock$' -fuzztime 10s ./internal/store

var fuzzSeed struct {
	once sync.Once
	m    *core.StudyMaterial
	seg  []byte
}

// fuzzSegment generates the tiny study once per process and returns
// its material, cut down to a few records per sink (shrinkMaterial),
// and the encoded segment of that material.
func fuzzSegment(f *testing.F) (*core.StudyMaterial, []byte) {
	f.Helper()
	fuzzSeed.once.Do(func() {
		es, err := core.GenerateEpochs(tinyConfig(42, 2021), tinyEpochs)
		if err != nil {
			panic(err)
		}
		fuzzSeed.m = shrinkMaterial(es.Material(), 16)
		fuzzSeed.seg = encodeSegment([]byte(`{"fuzz":"seed"}`), fuzzSeed.m)
	})
	return fuzzSeed.m, fuzzSeed.seg
}

// shrinkMaterial keeps the first k records of every sink and clamps
// the run bounds to them. Every seed byte is still
// generated data, but a seed stays small enough for the fuzzer to
// mutate and minimize quickly (whole tiny-study sinks run to hundreds
// of kilobytes).
func shrinkMaterial(m *core.StudyMaterial, k int) *core.StudyMaterial {
	out := *m
	out.Epochs = make([]core.EpochMaterial, len(m.Epochs))
	for e, em := range m.Epochs {
		small := core.EpochMaterial{
			Sinks: make([]core.SinkMaterial, len(em.Sinks)),
			Lo:    make([]int32, len(em.Lo)),
			Hi:    make([]int32, len(em.Hi)),
		}
		for w, sm := range em.Sinks {
			small.Sinks[w] = core.SinkMaterial{Tel: sm.Tel, GN: sm.GN, Blk: headBlock(sm.Blk, k)}
		}
		for i := range em.Lo {
			small.Lo[i] = min(em.Lo[i], int32(k))
			small.Hi[i] = min(em.Hi[i], int32(k))
		}
		out.Epochs[e] = small
	}
	return &out
}

// eachSink calls fn for every (epoch, worker) sink of the material.
func eachSink(m *core.StudyMaterial, fn func(sm *core.SinkMaterial)) {
	for e := range m.Epochs {
		for w := range m.Epochs[e].Sinks {
			fn(&m.Epochs[e].Sinks[w])
		}
	}
}

// headBlock returns the first k records of b with the prefix of the
// credential arena they reference — a small but real seed.
func headBlock(b *netsim.RecordBlock, k int) *netsim.RecordBlock {
	k = min(k, b.Len())
	var h netsim.RecordBlock
	h.AppendRange(b, 0, k, 0)
	arena := 0
	for _, c := range h.Cred {
		arena = max(arena, int(c)+1)
	}
	h.CredLists = b.CredLists[:arena]
	return &h
}

// addSeeds registers real encodings as seeds after checking that each
// one decodes: the round-trip property is only as strong as the valid
// inputs the fuzzer starts from.
func addSeeds(f *testing.F, decode func([]byte) error, seeds ...[]byte) {
	f.Helper()
	for _, seed := range seeds {
		if err := decode(seed); err != nil {
			f.Fatalf("seed of %d bytes does not decode: %v", len(seed), err)
		}
		f.Add(seed)
	}
}

// decodeSegment scans and decodes a whole segment image.
func decodeSegment(seg []byte) error {
	frames, _ := scanSegment(seg)
	if _, m, reason := decodeFrames(frames); m == nil {
		return errors.New(reason)
	}
	return nil
}

// identityRemap maps every payload id interned in this process to
// itself, so decoded blocks re-encode to their input bytes.
func identityRemap() []netsim.PayloadID {
	remap := make([]netsim.PayloadID, netsim.PayloadCount())
	for i := range remap {
		remap[i] = netsim.PayloadID(i)
	}
	return remap
}

func FuzzBinReaderSlices(f *testing.F) {
	m, _ := fuzzSegment(f)
	f.Add(wire.AppendI32s(nil, m.ActorWorker))
	eachSink(m, func(sm *core.SinkMaterial) {
		f.Add(wire.AppendI32s(nil, sm.Blk.Vantage))
		f.Add(wire.AppendU16s(nil, sm.Blk.Port))
	})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary bytes: every slice read either succeeds inside the
		// buffer or poisons the cursor; none panics or over-allocates.
		r := wire.NewBinReader(data)
		i32s := r.I32s()
		addrs := r.Addrs()
		u16s := wire.ReadU16s[uint16](r)
		u8s := wire.ReadU8s[uint8](r)
		view := r.View()
		if r.Err() == nil {
			used := 5*4 + 4*len(i32s) + 4*len(addrs) + 2*len(u16s) + len(u8s) + len(view)
			if consumed := len(data) - r.Len(); consumed != used {
				t.Fatalf("decoded %d bytes' worth from %d consumed", used, consumed)
			}
		}
		if set := wire.ReadAddrSet(r); r.Err() == nil && 4*len(set) > len(data) {
			t.Fatalf("set of %d addresses from %d bytes", len(set), len(data))
		}

		// Valid input round-trips: the data's words, encoded with each
		// slice codec, decode back to themselves.
		vs := make([]int32, len(data)/4)
		for i := range vs {
			vs[i] = int32(binary.LittleEndian.Uint32(data[4*i:]))
		}
		hs := make([]uint16, len(data)/2)
		for i := range hs {
			hs[i] = binary.LittleEndian.Uint16(data[2*i:])
		}
		enc := wire.AppendI32s(nil, vs)
		enc = wire.AppendU16s(enc, hs)
		enc = wire.AppendU8s(enc, data)
		r = wire.NewBinReader(enc)
		gotV, gotH, gotB := r.I32s(), wire.ReadU16s[uint16](r), wire.ReadU8s[byte](r)
		if r.Err() != nil || r.Len() != 0 {
			t.Fatalf("round trip: err %v, %d bytes left", r.Err(), r.Len())
		}
		if len(gotV) != len(vs) || len(gotH) != len(hs) || !bytes.Equal(gotB, data) {
			t.Fatal("round trip changed the slices")
		}
		for i := range vs {
			if gotV[i] != vs[i] {
				t.Fatalf("int32 %d: %d != %d", i, gotV[i], vs[i])
			}
		}
		for i := range hs {
			if gotH[i] != hs[i] {
				t.Fatalf("uint16 %d: %d != %d", i, gotH[i], hs[i])
			}
		}
	})
}

func FuzzDecodeRecordBlock(f *testing.F) {
	m, _ := fuzzSegment(f)
	remap := identityRemap()
	decode := func(data []byte) error {
		_, err := netsim.DecodeRecordBlock(wire.NewBinReader(data), remap)
		return err
	}
	eachSink(m, func(sm *core.SinkMaterial) {
		addSeeds(f, decode, sm.Blk.AppendBinary(nil), headBlock(sm.Blk, 2).AppendBinary(nil))
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := wire.NewBinReader(data)
		b, err := netsim.DecodeRecordBlock(r, remap)
		if err != nil {
			return
		}
		// The block encoding has no map order, so an accepted input
		// re-encodes to exactly the bytes it was decoded from.
		enc := b.AppendBinary(nil)
		if len(enc) != b.BinarySize() {
			t.Fatalf("encoded %d bytes, BinarySize %d", len(enc), b.BinarySize())
		}
		if consumed := data[:len(data)-r.Len()]; !bytes.Equal(enc, consumed) {
			t.Fatalf("re-encoding differs from the %d decoded bytes", len(consumed))
		}
	})
}

func FuzzDecodeCollector(f *testing.F) {
	m, _ := fuzzSegment(f)
	decode := func(data []byte) error {
		_, err := telescope.DecodeCollector(wire.NewBinReader(data))
		return err
	}
	eachSink(m, func(sm *core.SinkMaterial) { addSeeds(f, decode, sm.Tel.AppendBinary(nil)) })
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := telescope.DecodeCollector(wire.NewBinReader(data))
		if err != nil {
			return
		}
		enc := c.AppendBinary(nil)
		if len(enc) != c.BinarySize() {
			t.Fatalf("encoded %d bytes, BinarySize %d", len(enc), c.BinarySize())
		}
		r := wire.NewBinReader(enc)
		c2, err := telescope.DecodeCollector(r)
		if err != nil || r.Len() != 0 {
			t.Fatalf("re-encoding does not decode: %v (%d bytes left)", err, r.Len())
		}
		// NaN frequencies never compare equal; everything else must
		// survive the round trip exactly.
		if !reflect.DeepEqual(c, c2) && !math.IsNaN(sumFreq(c)) {
			t.Fatal("collector changed across a round trip")
		}
	})
}

// sumFreq folds every AS frequency of a collector into one number,
// NaN if any of them is.
func sumFreq(c *telescope.Collector) float64 {
	s := 0.0
	for _, v := range c.ASFrequenciesAll() {
		s += v
	}
	return s
}

func FuzzDecodeDelta(f *testing.F) {
	m, _ := fuzzSegment(f)
	decode := func(data []byte) error {
		_, err := greynoise.DecodeDelta(wire.NewBinReader(data))
		return err
	}
	eachSink(m, func(sm *core.SinkMaterial) { addSeeds(f, decode, sm.GN.AppendBinary(nil)) })
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := greynoise.DecodeDelta(wire.NewBinReader(data))
		if err != nil {
			return
		}
		enc := d.AppendBinary(nil)
		if len(enc) != d.BinarySize() {
			t.Fatalf("encoded %d bytes, BinarySize %d", len(enc), d.BinarySize())
		}
		r := wire.NewBinReader(enc)
		d2, err := greynoise.DecodeDelta(r)
		if err != nil || r.Len() != 0 || !reflect.DeepEqual(d, d2) {
			t.Fatalf("delta changed across a round trip: %v (%d bytes left)", err, r.Len())
		}
	})
}

// checkSegment scans and decodes a segment image. A decoded study must
// re-encode to a segment that scans whole and decodes again with the
// same shape.
func checkSegment(t *testing.T, seg []byte) {
	frames, valid := scanSegment(seg)
	if valid > len(seg) {
		t.Fatalf("valid prefix %d beyond %d bytes", valid, len(seg))
	}
	cfgJSON, m, _ := decodeFrames(frames)
	if m == nil {
		return
	}
	again := encodeSegment(cfgJSON, m)
	frames, valid = scanSegment(again)
	if valid != len(again) {
		t.Fatalf("re-encoded segment scans to %d of %d bytes", valid, len(again))
	}
	cfg2, m2, reason := decodeFrames(frames)
	if m2 == nil {
		t.Fatalf("re-encoded segment does not decode: %s", reason)
	}
	if !bytes.Equal(cfg2, cfgJSON) || m2.Workers != m.Workers || len(m2.Epochs) != len(m.Epochs) || m2.Scenario != m.Scenario {
		t.Fatal("study shape changed across a round trip")
	}
}

func FuzzScanSegment(f *testing.F) {
	_, seg := fuzzSegment(f)
	addSeeds(f, decodeSegment, seg)
	f.Add(seg[:len(seg)/2])
	f.Add([]byte(segMagic))
	f.Fuzz(checkSegment)
}

// FuzzDecodeEpochFrame fuzzes the bytes inside a checksum: the input
// replaces the first epoch frame's payload of the real tiny segment
// and the frame is re-stamped with a valid CRC, so every mutation
// reaches the study decoder instead of stopping at the frame scan.
func FuzzDecodeEpochFrame(f *testing.F) {
	_, seg := fuzzSegment(f)
	frames, _ := scanSegment(seg)
	restamp := func(payload []byte) []byte {
		img := append([]byte(nil), segMagic...)
		img = wire.AppendU32(img, segVersion)
		for i, fr := range frames {
			if i == 3 {
				fr.payload = payload
			}
			img = appendFrame(img, fr.typ, fr.payload)
		}
		return img
	}
	for _, fr := range frames[3:] {
		addSeeds(f, func(p []byte) error { return decodeSegment(restamp(p)) }, fr.payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		img := restamp(payload)
		got, valid := scanSegment(img)
		if valid != len(img) || len(got) != len(frames) {
			t.Fatalf("re-stamped segment scans to %d of %d bytes", valid, len(img))
		}
		checkSegment(t, img)
	})
}
