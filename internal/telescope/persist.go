package telescope

import (
	"fmt"
	"slices"

	"cloudwatch/internal/stats"
	"cloudwatch/internal/wire"
)

// Serialization of a sealed collector for the durable epoch store.
// Only aggregated state is persisted — the per-run observe caches are
// transient and a restored collector is only ever merged and read,
// never observed into, exactly like the sealed per-epoch collectors it
// reconstructs. Deferred AS counts are flushed before encoding so the
// tables are complete.

// BinarySize returns the exact number of bytes AppendBinary writes.
// Like AppendBinary, it flushes deferred AS counts first.
func (c *Collector) BinarySize() int {
	c.flushAS()
	size := 8 + 4 + 2*len(c.watch)
	size += 4
	for _, srcs := range c.srcsByPort {
		size += 2 + 4 + 4*len(srcs)
	}
	size += 4
	for _, freq := range c.asByPort {
		size += 2 + 4
		for k := range freq {
			size += 4 + len(k) + 8
		}
	}
	size += 4
	for _, log := range c.perAddr {
		size += 2 + 4 + 4*len(log.dst) + 4 + 4*len(log.src) + 1 + 4 + 4
	}
	return size
}

// AppendBinary serializes the collector's aggregated state onto dst.
func (c *Collector) AppendBinary(dst []byte) []byte {
	dst = slices.Grow(dst, c.BinarySize())
	dst = wire.AppendU64(dst, uint64(c.packets))

	dst = wire.AppendU32(dst, uint32(len(c.watch)))
	for port := range c.watch {
		dst = wire.AppendU16(dst, port)
	}

	dst = wire.AppendU32(dst, uint32(len(c.srcsByPort)))
	for port, srcs := range c.srcsByPort {
		dst = wire.AppendU16(dst, port)
		dst = wire.AppendAddrSet(dst, srcs)
	}

	dst = wire.AppendU32(dst, uint32(len(c.asByPort)))
	for port, freq := range c.asByPort {
		dst = wire.AppendU16(dst, port)
		dst = wire.AppendU32(dst, uint32(len(freq)))
		for k, v := range freq {
			dst = wire.AppendString(dst, k)
			dst = wire.AppendF64(dst, v)
		}
	}

	dst = wire.AppendU32(dst, uint32(len(c.perAddr)))
	for port, log := range c.perAddr {
		dst = wire.AppendU16(dst, port)
		dst = wire.AppendAddrs(dst, log.dst)
		dst = wire.AppendAddrs(dst, log.src)
		last := uint8(0)
		if log.lastOK {
			last = 1
		}
		dst = wire.AppendU8(dst, last)
		dst = wire.AppendU32(dst, uint32(log.lastDst))
		dst = wire.AppendU32(dst, uint32(log.lastSrc))
	}
	return dst
}

// DecodeCollector reads one serialized collector. The result is
// sealed: safe to Merge from, Clone, and read, with the same
// aggregated state the encoded collector held.
func DecodeCollector(r *wire.BinReader) (*Collector, error) {
	c := &Collector{
		srcsByPort: map[uint16]map[wire.Addr]struct{}{},
		asByPort:   map[uint16]stats.Freq{},
		perAddr:    map[uint16]*watchLog{},
		watch:      map[uint16]bool{},
	}
	c.packets = int(r.U64())

	for i, n := 0, r.Count(2); i < n; i++ {
		c.watch[r.U16()] = true
	}

	// Each Count passes the smallest encoding of one entry: a port plus
	// a count (6 bytes), or for a watch log a port, two column counts,
	// the last-pair flag and both last addresses (19 bytes).
	for i, n := 0, r.Count(6); i < n; i++ {
		port := r.U16()
		srcs := wire.ReadAddrSet(r)
		if r.Err() == nil {
			c.srcsByPort[port] = srcs
		}
	}

	for i, n := 0, r.Count(6); i < n; i++ {
		port := r.U16()
		m := r.Count(12)
		freq := make(stats.Freq, m)
		for j := 0; j < m; j++ {
			k := r.String()
			v := r.F64()
			if r.Err() == nil {
				freq[k] = v
			}
		}
		if r.Err() == nil {
			c.asByPort[port] = freq
		}
	}

	for i, n := 0, r.Count(19); i < n; i++ {
		port := r.U16()
		log := &watchLog{
			dst: r.Addrs(),
			src: r.Addrs(),
		}
		log.lastOK = r.U8() == 1
		log.lastDst = wire.Addr(r.U32())
		log.lastSrc = wire.Addr(r.U32())
		if len(log.dst) != len(log.src) {
			return nil, fmt.Errorf("telescope: watch log columns disagree (%d dst vs %d src)", len(log.dst), len(log.src))
		}
		if r.Err() == nil {
			c.perAddr[port] = log
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("telescope: decoding collector: %w", err)
	}
	return c, nil
}
