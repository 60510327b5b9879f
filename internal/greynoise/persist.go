package greynoise

import (
	"fmt"

	"cloudwatch/internal/wire"
)

// Serialization of a sealed per-worker delta for the durable epoch
// store. Only the two observation sets are persisted; the same-source
// run caches are observe-time transients, and a restored delta is only
// ever folded into a Service with MergeDelta.

// BinarySize returns the exact number of bytes AppendBinary writes.
func (d *Delta) BinarySize() int { return 8 + 4*(len(d.seen)+len(d.exploited)) }

// AppendBinary serializes the delta's observation sets onto dst.
func (d *Delta) AppendBinary(dst []byte) []byte {
	dst = wire.AppendAddrSet(dst, d.seen)
	return wire.AppendAddrSet(dst, d.exploited)
}

// DecodeDelta reads one serialized delta.
func DecodeDelta(r *wire.BinReader) (*Delta, error) {
	d := &Delta{seen: wire.ReadAddrSet(r), exploited: wire.ReadAddrSet(r)}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("greynoise: decoding delta: %w", err)
	}
	return d, nil
}
