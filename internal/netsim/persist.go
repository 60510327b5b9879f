package netsim

import (
	"encoding/binary"
	"fmt"
	"slices"

	"cloudwatch/internal/wire"
)

// Serialization of the columnar record store for the durable epoch
// store (internal/store). The struct-of-arrays layout makes framing
// near-free: every scalar column is appended as a length-prefixed run
// of fixed-width values, and only the credential arena needs
// per-element encoding.
//
// Payload ids are process-local (the interner hands them out in
// first-sight order, which depends on worker scheduling), so a block
// on disk is only meaningful next to a payload dictionary mapping its
// ids to payload bytes. AppendPayloadDict persists the dictionary;
// DecodePayloadDict re-interns every entry in the reading process and
// returns the old-id → new-id remap DecodeRecordBlock applies to the
// Pay column.

// BinarySize returns the exact number of bytes AppendBinary writes.
func (b *RecordBlock) BinarySize() int {
	n := b.Len()
	// Record count, then nine count-prefixed columns: seven of 4-byte
	// values, Port at 2 bytes, Transport at 1.
	size := 4 + 9*4 + (7*4+2+1)*n
	size += 4 // credential-list count
	for _, creds := range b.CredLists {
		size += 4 + 8*len(creds)
		for _, c := range creds {
			size += len(c.Username) + len(c.Password)
		}
	}
	return size
}

// AppendBinary serializes the block onto dst and returns the extended
// buffer. It reserves the block's exact size once, so a caller that
// presized dst (BinarySize) pays no growth at all.
func (b *RecordBlock) AppendBinary(dst []byte) []byte {
	dst = slices.Grow(dst, b.BinarySize())
	dst = wire.AppendU32(dst, uint32(b.Len()))
	dst = wire.AppendU32s(dst, b.Vantage)
	dst = wire.AppendU32s(dst, b.Sec)
	dst = wire.AppendU32s(dst, b.Nsec)
	dst = wire.AppendU32s(dst, b.Src)
	dst = wire.AppendU32s(dst, b.ASN)
	dst = wire.AppendU16s(dst, b.Port)
	dst = wire.AppendU8s(dst, b.Transport)
	dst = wire.AppendU32s(dst, b.Pay)
	dst = wire.AppendU32s(dst, b.Cred)
	dst = wire.AppendU32(dst, uint32(len(b.CredLists)))
	for _, creds := range b.CredLists {
		dst = wire.AppendU32(dst, uint32(len(creds)))
		for _, c := range creds {
			dst = wire.AppendString(dst, c.Username)
			dst = wire.AppendString(dst, c.Password)
		}
	}
	return dst
}

// DecodeRecordBlock reads one serialized block, rewriting the Pay
// column through remap (old on-disk id → id in this process, from
// DecodePayloadDict). Every column must carry the same record count.
// Each column is taken from the buffer in one bounds-checked step and
// converted in a loop; credential strings are interned per block, so
// the few distinct usernames and passwords a block repeats thousands
// of times are allocated once each.
func DecodeRecordBlock(r *wire.BinReader, remap []PayloadID) (RecordBlock, error) {
	var b RecordBlock
	n := int(r.U32())
	b.Vantage = wire.ReadU32s[int32](r)
	b.Sec = wire.ReadU32s[int32](r)
	b.Nsec = wire.ReadU32s[int32](r)
	b.Src = wire.ReadU32s[wire.Addr](r)
	b.ASN = wire.ReadU32s[int32](r)
	b.Port = wire.ReadU16s[uint16](r)
	b.Transport = wire.ReadU8s[wire.Transport](r)
	if nPay, raw := r.Column(4); nPay > 0 {
		b.Pay = make([]PayloadID, nPay)
		for i := range b.Pay {
			old := int32(binary.LittleEndian.Uint32(raw))
			raw = raw[4:]
			if old < 0 || int(old) >= len(remap) {
				return b, fmt.Errorf("netsim: record block payload id %d outside dictionary of %d", old, len(remap))
			}
			b.Pay[i] = remap[old]
		}
	}
	b.Cred = wire.ReadU32s[int32](r)
	b.CredLists = decodeCredLists(r)
	if err := r.Err(); err != nil {
		return b, fmt.Errorf("netsim: decoding record block: %w", err)
	}
	for _, col := range []int{len(b.Vantage), len(b.Sec), len(b.Nsec), len(b.Src), len(b.ASN), len(b.Port), len(b.Transport), len(b.Pay), len(b.Cred)} {
		if col != n {
			return b, fmt.Errorf("netsim: record block columns disagree on length (%d vs %d)", col, n)
		}
	}
	for _, c := range b.Cred {
		if c < -1 || int(c) >= len(b.CredLists) {
			return b, fmt.Errorf("netsim: record block credential index %d outside arena of %d", c, len(b.CredLists))
		}
	}
	return b, nil
}

// decodeCredLists reads the credential arena, interning its strings
// per block: a block repeats a few dozen distinct usernames and
// passwords hundreds of thousands of times.
func decodeCredLists(r *wire.BinReader) [][]Credential {
	nLists := r.Count(4)
	if r.Err() != nil || nLists == 0 {
		return nil
	}
	tab := interner{}
	lists := make([][]Credential, nLists)
	for i := range lists {
		creds := make([]Credential, r.Count(8))
		for j := range creds {
			creds[j] = Credential{Username: tab.intern(r.View()), Password: tab.intern(r.View())}
		}
		lists[i] = creds
	}
	return lists
}

// interner deduplicates decoded strings; the lookup with a converted
// []byte key does not allocate.
type interner map[string]string

func (t interner) intern(b []byte) string {
	if s, ok := t[string(b)]; ok {
		return s
	}
	s := string(b)
	t[s] = s
	return s
}

// AppendPayloadDict serializes the payload interner's current table
// (ids 1..PayloadCount-1, in id order). Blocks persisted alongside the
// dictionary always reference ids below the persisted count, because
// the interner only grows.
func AppendPayloadDict(dst []byte) []byte {
	n := PayloadCount()
	dst = wire.AppendU32(dst, uint32(n-1))
	for id := 1; id < n; id++ {
		dst = wire.AppendBytes(dst, PayloadBytes(PayloadID(id)))
	}
	return dst
}

// DecodePayloadDict reads a persisted payload dictionary, interns
// every payload in this process, and returns the remap table: the id
// a stored block used at position i maps to remap[i] here. remap[0]
// is the reserved "no payload" id.
func DecodePayloadDict(r *wire.BinReader) ([]PayloadID, error) {
	n := r.Count(4)
	remap := make([]PayloadID, n+1)
	for i := 1; i <= n; i++ {
		pay := r.Bytes()
		if r.Err() != nil {
			break
		}
		if len(pay) == 0 {
			return nil, fmt.Errorf("netsim: payload dictionary entry %d is empty", i)
		}
		remap[i] = InternPayload(pay)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("netsim: decoding payload dictionary: %w", err)
	}
	return remap, nil
}
