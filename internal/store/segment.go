package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"cloudwatch/internal/core"
	"cloudwatch/internal/greynoise"
	"cloudwatch/internal/netsim"
	"cloudwatch/internal/telescope"
	"cloudwatch/internal/wire"
)

// Segment layout: an 12-byte header (magic + format version) followed
// by self-delimiting frames
//
//	[u8 type][u32 len][payload: len bytes][u32 crc32-IEEE]
//
// where the checksum covers type, length, and payload. A reader stops
// at the first frame whose header, length, or checksum does not hold;
// everything before that boundary is valid by construction, so a tail
// torn by a crash costs only the unsynced suffix. A complete study is
// exactly the sequence
//
//	config (JSON) · payload dict · layout · epoch × layout.epochs
//
// and anything short of that (or any structural decode failure inside
// a checksummed frame) degrades to "nothing recovered" — the caller
// regenerates deterministically and rewrites the segment.
const (
	segMagic = "CWEPOCHS"
	// segVersion 2 added the scenario id to the layout frame. A v1
	// segment decodes as "nothing recovered": the reader regenerates
	// deterministically and rewrites the segment in the current format,
	// the same degradation path as a torn tail.
	segVersion = 2

	frameConfig = 1 // normalized study config JSON
	frameDict   = 2 // payload interner dictionary
	frameLayout = 3 // worker width, epoch count, scenario id, actor->worker map
	frameEpoch  = 4 // one epoch: per-worker sinks + per-actor run bounds
)

// maxFrameLen bounds a single frame so a corrupt length prefix cannot
// force a giant allocation before the checksum is even consulted.
const maxFrameLen = 1 << 31

type frame struct {
	typ     uint8
	payload []byte
}

// frameOverhead is the bytes a frame adds around its payload: the
// type byte and length prefix before it, the checksum after it.
const frameOverhead = 1 + 4 + 4

// beginFrame reserves a frame header in place; the caller appends the
// payload directly after it and seals the frame with endFrame, so no
// payload is ever built in a side buffer and copied.
func beginFrame(dst []byte, typ uint8) (ext []byte, start int) {
	start = len(dst)
	return append(dst, typ, 0, 0, 0, 0), start
}

// endFrame backfills the length of the frame begun at start and
// appends its checksum (over type, length, and payload).
func endFrame(dst []byte, start int) []byte {
	binary.LittleEndian.PutUint32(dst[start+1:], uint32(len(dst)-start-5))
	return wire.AppendU32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// appendFrame appends a whole frame around an already built payload.
func appendFrame(dst []byte, typ uint8, payload []byte) []byte {
	dst, start := beginFrame(dst, typ)
	return endFrame(append(dst, payload...), start)
}

// scanSegment walks the raw segment image and returns every frame up
// to the first invalid byte, plus the offset of that boundary (the
// length the file should be truncated to). An unrecognizable header
// invalidates the whole file.
func scanSegment(buf []byte) (frames []frame, validLen int) {
	if len(buf) < len(segMagic)+4 || string(buf[:len(segMagic)]) != segMagic {
		return nil, 0
	}
	r := wire.NewBinReader(buf[len(segMagic):])
	if r.U32() != segVersion {
		return nil, 0
	}
	off := len(segMagic) + 4
	for off < len(buf) {
		rest := buf[off:]
		if len(rest) < 5 {
			break
		}
		n := int(binary.LittleEndian.Uint32(rest[1:]))
		if n >= maxFrameLen || len(rest) < 5+n+4 {
			break
		}
		body := rest[:5+n]
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(rest[5+n:]) {
			break
		}
		frames = append(frames, frame{typ: body[0], payload: body[5:]})
		off += 5 + n + 4
	}
	return frames, off
}

// encodeSegment serializes a full study into segment bytes. The
// segment's exact size is computed first, so the whole image is one
// allocation and every frame is encoded in place. Epoch frames are
// independent, so each is encoded concurrently into its own exactly
// sized window of the image.
func encodeSegment(configJSON []byte, m *core.StudyMaterial) []byte {
	dict := netsim.AppendPayloadDict(nil)
	layoutSize := 4 + 4 + 4 + len(m.Scenario) + 4 + 4*len(m.ActorWorker)
	head := len(segMagic) + 4 + 3*frameOverhead + len(configJSON) + len(dict) + layoutSize
	ends := make([]int, len(m.Epochs)) // end offset of each epoch frame
	size := head
	for e := range m.Epochs {
		size += frameOverhead + epochSize(&m.Epochs[e])
		ends[e] = size
	}

	buf := make([]byte, 0, size)
	buf = append(buf, segMagic...)
	buf = wire.AppendU32(buf, segVersion)
	buf = appendFrame(buf, frameConfig, configJSON)
	buf = appendFrame(buf, frameDict, dict)
	buf, at := beginFrame(buf, frameLayout)
	buf = wire.AppendU32(buf, uint32(m.Workers))
	buf = wire.AppendU32(buf, uint32(len(m.Epochs)))
	buf = wire.AppendString(buf, m.Scenario)
	buf = wire.AppendI32s(buf, m.ActorWorker)
	buf = endFrame(buf, at)
	if len(buf) != head {
		panic(fmt.Sprintf("store: segment header encoded to %d bytes, sized %d", len(buf), head))
	}

	buf = buf[:size]
	core.ParallelEach(len(m.Epochs), func(e int) {
		start := head
		if e > 0 {
			start = ends[e-1]
		}
		// A window with no spare capacity: an encoder that outgrew its
		// computed size would reallocate away from the image, which the
		// length check below turns into a loud failure.
		win := buf[start:start:ends[e]]
		win, at := beginFrame(win, frameEpoch)
		em := &m.Epochs[e]
		for w := range em.Sinks {
			sm := &em.Sinks[w]
			win = sm.Tel.AppendBinary(win)
			win = sm.GN.AppendBinary(win)
			win = sm.Blk.AppendBinary(win)
			win = wire.AppendI32s(win, sm.Seq)
		}
		win = wire.AppendI32s(win, em.Lo)
		win = wire.AppendI32s(win, em.Hi)
		win = endFrame(win, at)
		if len(win) != ends[e]-start || &win[0] != &buf[start] {
			panic(fmt.Sprintf("store: epoch %d frame encoded to %d bytes, sized %d", e, len(win), ends[e]-start))
		}
	})
	return buf
}

// epochSize is the exact payload size of one epoch frame.
func epochSize(em *core.EpochMaterial) int {
	size := 4 + 4*len(em.Lo) + 4 + 4*len(em.Hi)
	for w := range em.Sinks {
		sm := &em.Sinks[w]
		size += sm.Tel.BinarySize() + sm.GN.BinarySize() + sm.Blk.BinarySize() + 4 + 4*len(sm.Seq)
	}
	return size
}

// decodeFrames rebuilds the persisted study from a valid frame
// sequence. A nil study with a reason means the segment (though every
// retained frame checksums) is not a complete usable study.
func decodeFrames(frames []frame) (configJSON []byte, m *core.StudyMaterial, reason string) {
	if len(frames) == 0 {
		return nil, nil, "segment empty or unrecognized"
	}
	expect := func(i int, typ uint8) ([]byte, bool) {
		if i >= len(frames) || frames[i].typ != typ {
			return nil, false
		}
		return frames[i].payload, true
	}
	cfgJSON, ok := expect(0, frameConfig)
	if !ok {
		return nil, nil, "segment missing config frame"
	}
	dict, ok := expect(1, frameDict)
	if !ok {
		return nil, nil, "segment missing payload dictionary"
	}
	remap, err := netsim.DecodePayloadDict(wire.NewBinReader(dict))
	if err != nil {
		return nil, nil, fmt.Sprintf("payload dictionary: %v", err)
	}
	layout, ok := expect(2, frameLayout)
	if !ok {
		return nil, nil, "segment missing layout frame"
	}
	lr := wire.NewBinReader(layout)
	workers := int(lr.U32())
	epochs := int(lr.U32())
	scenario := lr.String()
	actorWorker := lr.I32s()
	if lr.Err() != nil || lr.Len() != 0 {
		return nil, nil, "layout frame malformed"
	}
	if workers < 1 || workers > 1<<20 || epochs < 1 || epochs > 1<<20 {
		return nil, nil, fmt.Sprintf("layout declares %d workers, %d epochs", workers, epochs)
	}
	if len(frames) != 3+epochs {
		return nil, nil, fmt.Sprintf("segment holds %d of %d epoch frames", len(frames)-3, epochs)
	}

	m = &core.StudyMaterial{
		Scenario:    scenario,
		Workers:     workers,
		ActorWorker: actorWorker,
		Epochs:      make([]core.EpochMaterial, epochs),
	}
	for e := 0; e < epochs; e++ {
		if typ := frames[3+e].typ; typ != frameEpoch {
			return nil, nil, fmt.Sprintf("frame %d: type %d where epoch expected", 3+e, typ)
		}
	}
	// Epoch frames decode independently once the payload remap is
	// built; the first failing epoch (by index) is the one reported.
	errs := make([]error, epochs)
	core.ParallelEach(epochs, func(e int) {
		em, err := decodeEpoch(frames[3+e].payload, workers, remap)
		if err != nil {
			errs[e] = err
			return
		}
		m.Epochs[e] = *em
	})
	for e, err := range errs {
		if err != nil {
			return nil, nil, fmt.Sprintf("epoch %d: %v", e, err)
		}
	}
	return cfgJSON, m, ""
}

func decodeEpoch(payload []byte, workers int, remap []netsim.PayloadID) (*core.EpochMaterial, error) {
	// Every sink encodes to dozens of bytes, so a worker count the
	// payload cannot hold fails before the sinks are allocated.
	if workers > len(payload) {
		return nil, fmt.Errorf("%d workers in a %d-byte frame", workers, len(payload))
	}
	r := wire.NewBinReader(payload)
	em := &core.EpochMaterial{Sinks: make([]core.SinkMaterial, workers)}
	for w := 0; w < workers; w++ {
		tel, err := telescope.DecodeCollector(r)
		if err != nil {
			return nil, fmt.Errorf("worker %d telescope: %w", w, err)
		}
		gn, err := greynoise.DecodeDelta(r)
		if err != nil {
			return nil, fmt.Errorf("worker %d greynoise: %w", w, err)
		}
		blk, err := netsim.DecodeRecordBlock(r, remap)
		if err != nil {
			return nil, fmt.Errorf("worker %d records: %w", w, err)
		}
		seq := r.I32s()
		if r.Err() != nil {
			return nil, fmt.Errorf("worker %d seqs: %w", w, r.Err())
		}
		em.Sinks[w] = core.SinkMaterial{Tel: tel, GN: gn, Blk: &blk, Seq: seq}
	}
	em.Lo = r.I32s()
	em.Hi = r.I32s()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%d trailing bytes", r.Len())
	}
	return em, nil
}
