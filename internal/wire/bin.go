package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Binary append/read helpers shared by the durable-store codecs
// (internal/netsim, internal/telescope, internal/greynoise serialize
// their sealed epoch state through these; internal/store frames the
// result). Everything is little-endian and length-prefixed; the append
// side grows a caller-owned []byte, the read side is a cursor with a
// sticky error so decoders can chain reads and check once.

// AppendU8 appends one byte.
func AppendU8(dst []byte, v uint8) []byte { return append(dst, v) }

// AppendU16 appends a little-endian uint16.
func AppendU16(dst []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(dst, v) }

// AppendU32 appends a little-endian uint32.
func AppendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }

// AppendU64 appends a little-endian uint64.
func AppendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

// AppendI32 appends a little-endian int32.
func AppendI32(dst []byte, v int32) []byte { return AppendU32(dst, uint32(v)) }

// AppendF64 appends the IEEE 754 bits of a float64.
func AppendF64(dst []byte, v float64) []byte { return AppendU64(dst, math.Float64bits(v)) }

// AppendBytes appends a u32 length prefix followed by the bytes.
func AppendBytes(dst, b []byte) []byte {
	dst = AppendU32(dst, uint32(len(b)))
	return append(dst, b...)
}

// AppendString appends a u32 length prefix followed by the string bytes.
func AppendString(dst []byte, s string) []byte {
	dst = AppendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

// grow extends dst by n bytes, growing its backing array at most once,
// and returns the extended buffer plus the n-byte window to fill in
// place: the slice encoders reserve their exact size up front and
// write fixed-width values by index instead of appending per element.
func grow(dst []byte, n int) (ext, window []byte) {
	ext = slices.Grow(dst, n)[:len(dst)+n]
	return ext, ext[len(dst):]
}

// AppendU32s appends a u32 count followed by the values as
// little-endian 32-bit words.
func AppendU32s[T ~int32 | ~uint32](dst []byte, vs []T) []byte {
	dst, w := grow(dst, 4+4*len(vs))
	binary.LittleEndian.PutUint32(w, uint32(len(vs)))
	w = w[4:]
	for i, v := range vs {
		binary.LittleEndian.PutUint32(w[4*i:], uint32(v))
	}
	return dst
}

// AppendU16s appends a u32 count followed by the values as
// little-endian 16-bit words.
func AppendU16s[T ~uint16](dst []byte, vs []T) []byte {
	dst, w := grow(dst, 4+2*len(vs))
	binary.LittleEndian.PutUint32(w, uint32(len(vs)))
	w = w[4:]
	for i, v := range vs {
		binary.LittleEndian.PutUint16(w[2*i:], uint16(v))
	}
	return dst
}

// AppendU8s appends a u32 count followed by the values, one byte each.
func AppendU8s[T ~uint8](dst []byte, vs []T) []byte {
	dst, w := grow(dst, 4+len(vs))
	binary.LittleEndian.PutUint32(w, uint32(len(vs)))
	w = w[4:]
	for i, v := range vs {
		w[i] = uint8(v)
	}
	return dst
}

// AppendI32s appends a u32 count followed by the raw int32 values.
func AppendI32s(dst []byte, vs []int32) []byte { return AppendU32s(dst, vs) }

// AppendAddrs appends a u32 count followed by the addresses as u32s.
func AppendAddrs(dst []byte, vs []Addr) []byte { return AppendU32s(dst, vs) }

// AppendAddrSet appends a u32 count followed by the set's addresses
// as u32s, in map iteration order (the AppendAddrs layout; readers
// treat the order as meaningless).
func AppendAddrSet(dst []byte, set map[Addr]struct{}) []byte {
	dst, w := grow(dst, 4+4*len(set))
	binary.LittleEndian.PutUint32(w, uint32(len(set)))
	i := 4
	for a := range set {
		binary.LittleEndian.PutUint32(w[i:], uint32(a))
		i += 4
	}
	return dst
}

// BinReader is a cursor over an encoded buffer with a sticky error:
// the first malformed read poisons the cursor, every later read
// returns zero values, and decoders check Err once at the end. Counts
// and lengths are validated against the remaining bytes before any
// allocation, so corrupt (CRC-evading) input cannot force
// pathological allocations.
type BinReader struct {
	buf []byte
	off int
	err error
}

// NewBinReader returns a cursor over buf.
func NewBinReader(buf []byte) *BinReader { return &BinReader{buf: buf} }

// Err returns the first decode error, or nil.
func (r *BinReader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *BinReader) Len() int { return len(r.buf) - r.off }

// Rest returns the unread tail without consuming it.
func (r *BinReader) Rest() []byte { return r.buf[r.off:] }

func (r *BinReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated %s at offset %d", what, r.off)
	}
}

func (r *BinReader) take(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Len() < n {
		r.fail(what)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *BinReader) U8() uint8 {
	b := r.take(1, "u8")
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a little-endian uint16.
func (r *BinReader) U16() uint16 {
	b := r.take(2, "u16")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (r *BinReader) U32() uint32 {
	b := r.take(4, "u32")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *BinReader) U64() uint64 {
	b := r.take(8, "u64")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I32 reads a little-endian int32.
func (r *BinReader) I32() int32 { return int32(r.U32()) }

// F64 reads a float64 from its IEEE 754 bits.
func (r *BinReader) F64() float64 { return math.Float64frombits(r.U64()) }

// Count reads a u32 element count and validates it against the
// remaining bytes assuming each element costs at least elemSize bytes,
// so corrupt counts fail instead of allocating.
func (r *BinReader) Count(elemSize int) int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if n < 0 || (elemSize > 0 && n > r.Len()/elemSize) {
		r.fail("count")
		return 0
	}
	return n
}

// Bytes reads a u32 length prefix and returns a copy of the bytes.
func (r *BinReader) Bytes() []byte {
	b := r.View()
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// String reads a u32 length prefix and the string bytes.
func (r *BinReader) String() string { return string(r.View()) }

// View reads a u32 length prefix and returns the bytes in place: the
// result aliases the decoded buffer, so callers copy (or intern) what
// they keep.
func (r *BinReader) View() []byte {
	if r.err != nil {
		return nil
	}
	rest := r.buf[r.off:]
	if len(rest) < 4 {
		r.fail("length")
		return nil
	}
	n := binary.LittleEndian.Uint32(rest)
	if uint64(n) > uint64(len(rest)-4) {
		r.fail("bytes")
		return nil
	}
	r.off += 4 + int(n)
	return rest[4 : 4+n]
}

// Column reads a u32 element count, validates it against the remaining
// bytes, and takes all n*size bytes of the elements in one step. It
// returns the count and the raw element bytes (aliasing the buffer),
// or 0 and nil on error.
func (r *BinReader) Column(size int) (n int, raw []byte) {
	n = r.Count(size)
	raw = r.take(n*size, "column")
	if raw == nil {
		return 0, nil
	}
	return n, raw
}

// ReadU32s reads a u32 count followed by that many little-endian
// 32-bit words (the AppendU32s layout). An empty column reads as nil.
func ReadU32s[T ~int32 | ~uint32](r *BinReader) []T {
	n, raw := r.Column(4)
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = T(binary.LittleEndian.Uint32(raw))
		raw = raw[4:]
	}
	return out
}

// ReadU16s reads a u32 count followed by that many little-endian
// 16-bit words (the AppendU16s layout). An empty column reads as nil.
func ReadU16s[T ~uint16](r *BinReader) []T {
	n, raw := r.Column(2)
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = T(binary.LittleEndian.Uint16(raw))
		raw = raw[2:]
	}
	return out
}

// ReadU8s reads a u32 count followed by that many bytes (the AppendU8s
// layout). An empty column reads as nil.
func ReadU8s[T ~uint8](r *BinReader) []T {
	n, raw := r.Column(1)
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i, v := range raw {
		out[i] = T(v)
	}
	return out
}

// I32s reads a u32 count followed by that many int32 values.
func (r *BinReader) I32s() []int32 { return ReadU32s[int32](r) }

// Addrs reads a u32 count followed by that many addresses.
func (r *BinReader) Addrs() []Addr { return ReadU32s[Addr](r) }

// ReadAddrSet reads an AppendAddrSet column into a set presized to
// its count.
func ReadAddrSet(r *BinReader) map[Addr]struct{} {
	n, raw := r.Column(4)
	set := make(map[Addr]struct{}, n)
	for ; len(raw) >= 4; raw = raw[4:] {
		set[Addr(binary.LittleEndian.Uint32(raw))] = struct{}{}
	}
	return set
}
