package wire

import (
	"bytes"
	"strings"
	"testing"
)

func TestBinRoundTrip(t *testing.T) {
	var b []byte
	b = AppendU8(b, 0xAB)
	b = AppendU16(b, 0xBEEF)
	b = AppendU32(b, 0xDEADBEEF)
	b = AppendU64(b, 1<<60+7)
	b = AppendI32(b, -12345)
	b = AppendF64(b, 3.75)
	b = AppendBytes(b, []byte("payload"))
	b = AppendString(b, "name")
	b = AppendI32s(b, []int32{1, -2, 3})
	b = AppendAddrs(b, []Addr{10, 20, 1 << 31})

	r := NewBinReader(b)
	if got := r.U8(); got != 0xAB {
		t.Fatalf("U8 = %x", got)
	}
	if got := r.U16(); got != 0xBEEF {
		t.Fatalf("U16 = %x", got)
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Fatalf("U32 = %x", got)
	}
	if got := r.U64(); got != 1<<60+7 {
		t.Fatalf("U64 = %x", got)
	}
	if got := r.I32(); got != -12345 {
		t.Fatalf("I32 = %d", got)
	}
	if got := r.F64(); got != 3.75 {
		t.Fatalf("F64 = %v", got)
	}
	if got := r.Bytes(); string(got) != "payload" {
		t.Fatalf("Bytes = %q", got)
	}
	if got := r.String(); got != "name" {
		t.Fatalf("String = %q", got)
	}
	is := r.I32s()
	if len(is) != 3 || is[0] != 1 || is[1] != -2 || is[2] != 3 {
		t.Fatalf("I32s = %v", is)
	}
	as := r.Addrs()
	if len(as) != 3 || as[0] != 10 || as[1] != 20 || as[2] != 1<<31 {
		t.Fatalf("Addrs = %v", as)
	}
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("clean read: err=%v rest=%d", r.Err(), r.Len())
	}
}

// TestBinReaderStickyError verifies that a truncated buffer poisons
// the cursor instead of panicking, and that later reads stay zero.
func TestBinReaderStickyError(t *testing.T) {
	b := AppendU32(nil, 5) // claims 5 bytes follow, none do
	r := NewBinReader(b)
	if got := r.Bytes(); got != nil {
		t.Fatalf("truncated Bytes = %v", got)
	}
	if r.Err() == nil || !strings.Contains(r.Err().Error(), "truncated") {
		t.Fatalf("want truncation error, got %v", r.Err())
	}
	// Poisoned cursor: everything after reads as zero, error stays.
	if r.U64() != 0 || r.String() != "" || r.I32s() != nil {
		t.Fatal("poisoned reads should be zero")
	}
}

// TestBinReaderHostileCount verifies that a huge element count fails
// the length check before allocating.
func TestBinReaderHostileCount(t *testing.T) {
	b := AppendU32(nil, 0xFFFFFFF0) // count that cannot fit
	r := NewBinReader(b)
	if got := r.I32s(); got != nil || r.Err() == nil {
		t.Fatalf("hostile count: got %d elems, err %v", len(got), r.Err())
	}
}

// TestBinSliceGoldenLayout pins the on-disk layout of the slice codecs
// to exact bytes: a u32 little-endian count, then each value as four
// little-endian bytes. The durable store's segment format depends on
// this layout, so any codec rewrite must reproduce it byte for byte.
func TestBinSliceGoldenLayout(t *testing.T) {
	var b []byte
	b = AppendI32s(b, []int32{1, -2, 0x01020304})
	b = AppendAddrs(b, []Addr{0x01020304, 0xFFFFFFFE})
	b = AppendI32s(b, nil)
	b = AppendAddrs(b, nil)
	want := []byte{
		0x03, 0x00, 0x00, 0x00, // I32s count
		0x01, 0x00, 0x00, 0x00,
		0xfe, 0xff, 0xff, 0xff,
		0x04, 0x03, 0x02, 0x01,
		0x02, 0x00, 0x00, 0x00, // Addrs count
		0x04, 0x03, 0x02, 0x01,
		0xfe, 0xff, 0xff, 0xff,
		0x00, 0x00, 0x00, 0x00, // empty I32s
		0x00, 0x00, 0x00, 0x00, // empty Addrs
	}
	if !bytes.Equal(b, want) {
		t.Fatalf("slice layout drifted:\n got % x\nwant % x", b, want)
	}
	r := NewBinReader(want)
	is, as := r.I32s(), r.Addrs()
	if len(is) != 3 || is[0] != 1 || is[1] != -2 || is[2] != 0x01020304 {
		t.Fatalf("I32s = %v", is)
	}
	if len(as) != 2 || as[0] != 0x01020304 || as[1] != 0xFFFFFFFE {
		t.Fatalf("Addrs = %v", as)
	}
	if r.I32s() != nil || r.Addrs() != nil || r.Err() != nil || r.Len() != 0 {
		t.Fatalf("empty slices: err=%v rest=%d", r.Err(), r.Len())
	}
}
