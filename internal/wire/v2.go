package wire

import (
	"encoding/binary"
	"math"
	"unsafe"

	"compactroute/internal/graph"
)

// This file holds the v2 payload primitives: varints and delta-friendly
// integer codecs for cold sections, a float sequence codec with an exact
// fast path for integral distances (generated edge weights are integers, so
// shortest-path distances are too), and self-describing fixed-width arrays
// that decode as zero-copy aliases over the snapshot bytes when the host is
// little-endian and the payload is suitably aligned.
//
// Aliased slices point into the snapshot's backing bytes - for a served
// snapshot that is a read-only mmap of the file - so they must never be
// written through. Every serve-time structure built on them is read-only by
// construction; mutable state (Fibonacci-hash indexes, overlays, stats)
// lives on the heap.

// The aliasing casts below assume the graph's id types are 4-byte values
// with the same representation as int32; these blow up at compile time if
// that ever changes.
var (
	_ [4]struct{} = [unsafe.Sizeof(graph.Vertex(0))]struct{}{}
	_ [4]struct{} = [unsafe.Sizeof(graph.Port(0))]struct{}{}
)

// HostLittleEndian reports whether this machine stores multi-byte integers
// little-endian - the precondition for aliasing wire arrays in place.
var HostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Aliasable reports whether b may be reinterpreted in place as elements
// that require the given alignment: the host is little-endian, b is
// non-empty and its base pointer is align-aligned. align must be a power
// of two.
func Aliasable(b []byte, align int) bool {
	if !HostLittleEndian || len(b) == 0 {
		return false
	}
	return uintptr(unsafe.Pointer(&b[0]))&uintptr(align-1) == 0
}

// Uvarint appends x in unsigned LEB128.
func (e *Encoder) Uvarint(x uint64) {
	e.buf = binary.AppendUvarint(e.buf, x)
}

// Varint appends x zigzag-encoded.
func (e *Encoder) Varint(x int64) {
	e.buf = binary.AppendVarint(e.buf, x)
}

// Uvarint reads an unsigned LEB128 value.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.Failf("invalid uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return x
}

// Varint reads a zigzag-encoded value.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.Failf("invalid varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return x
}

// Float sequence tags. Distances in this codebase are sums of integer edge
// weights, so the integral path almost always wins: one or two bytes per
// value instead of eight.
const (
	floatSeqRaw      = 0
	floatSeqIntegral = 1
)

// maxExactFloat is the largest float64 that holds every smaller integer
// exactly (2^53); only values up to it ride the integral fast path, so the
// uvarint round trip is bit-exact.
const maxExactFloat = 1 << 53

// FloatSeq appends xs behind a one-byte tag: if every value is a
// non-negative integer at most 2^53 they are written as uvarints, otherwise
// as raw IEEE-754 bits. Negative zero takes the raw path, so it survives the
// round trip. The element count is not written; the decoder supplies it.
func (e *Encoder) FloatSeq(xs []float64) {
	integral := true
	for _, x := range xs {
		if !(x >= 0 && x <= maxExactFloat && x == math.Trunc(x)) || math.Signbit(x) {
			integral = false
			break
		}
	}
	if integral {
		e.Byte(floatSeqIntegral)
		for _, x := range xs {
			e.Uvarint(uint64(x))
		}
		return
	}
	e.Byte(floatSeqRaw)
	for _, x := range xs {
		e.Float64(x)
	}
}

// FloatSeq fills out with a sequence written by Encoder.FloatSeq. The
// caller must size out from counts already validated against the payload.
func (d *Decoder) FloatSeq(out []float64) {
	switch d.Byte() {
	case floatSeqIntegral:
		for i := range out {
			out[i] = float64(d.Uvarint())
		}
	case floatSeqRaw:
		for i := range out {
			out[i] = d.Float64()
		}
	default:
		if d.err == nil {
			d.Failf("invalid float-seq tag")
		}
	}
}

// ArrayHeader begins a self-describing fixed-width array: element width and
// alignment (one byte each), a u32 element count, then zero padding so the
// payload starts at a section offset that is a multiple of align. Inside a
// SecAligned section that section offset is also a 64-byte stream offset,
// which is what keeps the payload aliasable over a page-aligned mapping.
// The caller must append exactly width*count payload bytes afterwards.
// align must be a power of two dividing SectionAlign.
func (e *Encoder) ArrayHeader(width, align, count int) {
	e.Byte(byte(width))
	e.Byte(byte(align))
	e.Uint32(uint32(count))
	pad := -e.Len() & (align - 1)
	for i := 0; i < pad; i++ {
		e.buf = append(e.buf, 0)
	}
}

// Array reads an array header written by ArrayHeader, checks that the
// stored width and alignment match what the caller expects, skips the
// padding and returns the raw payload (aliasing the section bytes) plus the
// element count. The count is validated against the remaining payload
// before anything is sliced.
func (d *Decoder) Array(width, align int) ([]byte, int) {
	w := int(d.Byte())
	a := int(d.Byte())
	if d.err != nil {
		return nil, 0
	}
	if w != width || a != align {
		d.Failf("array header says width %d align %d, expected %d/%d", w, a, width, align)
		return nil, 0
	}
	c := d.Count(width)
	if d.err != nil {
		return nil, 0
	}
	pad := -d.off & (align - 1)
	d.take(pad)
	data := d.take(c * width)
	if d.err != nil {
		return nil, 0
	}
	return data, c
}

// leU32 reads the i-th little-endian uint32 of a raw array payload.
func leU32(b []byte, i int) uint32 {
	b = b[i*4 : i*4+4]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// leU64 reads the i-th little-endian uint64 of a raw array payload.
func leU64(b []byte, i int) uint64 {
	b = b[i*8 : i*8+8]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// array4 decodes a width-4 array as []T, aliasing the payload when
// possible and copying (charged against the decode budget) otherwise.
func array4[T ~int32 | ~uint32](d *Decoder) []T {
	data, c := d.Array(4, 4)
	if d.err != nil || c == 0 {
		return nil
	}
	if Aliasable(data, 4) {
		return unsafe.Slice((*T)(unsafe.Pointer(&data[0])), c)
	}
	if !d.Alloc(4 * int64(c)) {
		return nil
	}
	out := make([]T, c)
	for i := range out {
		out[i] = T(leU32(data, i))
	}
	return out
}

// Int32Array appends xs as an aligned fixed-width array.
func (e *Encoder) Int32Array(xs []int32) {
	e.ArrayHeader(4, 4, len(xs))
	for _, x := range xs {
		e.Int32(x)
	}
}

// Int32Array reads an array written by Encoder.Int32Array. The result may
// alias the snapshot bytes; treat it as read-only.
func (d *Decoder) Int32Array() []int32 { return array4[int32](d) }

// Uint32Array appends xs as an aligned fixed-width array.
func (e *Encoder) Uint32Array(xs []uint32) {
	e.ArrayHeader(4, 4, len(xs))
	for _, x := range xs {
		e.Uint32(x)
	}
}

// Uint32Array reads an array written by Encoder.Uint32Array. The result may
// alias the snapshot bytes; treat it as read-only.
func (d *Decoder) Uint32Array() []uint32 { return array4[uint32](d) }

// Uint16Array appends xs as an aligned fixed-width array. Narrow sections
// (per-set member indexes, small integral distances) use it to halve their
// footprint relative to Uint32Array while staying alias-served.
func (e *Encoder) Uint16Array(xs []uint16) {
	e.ArrayHeader(2, 2, len(xs))
	for _, x := range xs {
		e.buf = append(e.buf, byte(x), byte(x>>8))
	}
}

// Uint16Array reads an array written by Encoder.Uint16Array. The result may
// alias the snapshot bytes; treat it as read-only.
func (d *Decoder) Uint16Array() []uint16 {
	data, c := d.Array(2, 2)
	if d.err != nil || c == 0 {
		return nil
	}
	if Aliasable(data, 2) {
		return unsafe.Slice((*uint16)(unsafe.Pointer(&data[0])), c)
	}
	if !d.Alloc(2 * int64(c)) {
		return nil
	}
	out := make([]uint16, c)
	for i := range out {
		out[i] = uint16(data[2*i]) | uint16(data[2*i+1])<<8
	}
	return out
}

// VertexArray appends vertex ids as an aligned fixed-width array.
func (e *Encoder) VertexArray(vs []graph.Vertex) {
	e.ArrayHeader(4, 4, len(vs))
	for _, v := range vs {
		e.Vertex(v)
	}
}

// VertexArray reads an array written by Encoder.VertexArray. The result may
// alias the snapshot bytes; treat it as read-only.
func (d *Decoder) VertexArray() []graph.Vertex { return array4[graph.Vertex](d) }

// PortArray appends ports as an aligned fixed-width array.
func (e *Encoder) PortArray(ps []graph.Port) {
	e.ArrayHeader(4, 4, len(ps))
	for _, p := range ps {
		e.Port(p)
	}
}

// PortArray reads an array written by Encoder.PortArray. The result may
// alias the snapshot bytes; treat it as read-only.
func (d *Decoder) PortArray() []graph.Port { return array4[graph.Port](d) }

// Float64Array appends xs as an aligned fixed-width array of IEEE-754 bits.
func (e *Encoder) Float64Array(xs []float64) {
	e.ArrayHeader(8, 8, len(xs))
	for _, x := range xs {
		e.Float64(x)
	}
}

// Float64Array reads an array written by Encoder.Float64Array. The result
// may alias the snapshot bytes; treat it as read-only.
func (d *Decoder) Float64Array() []float64 {
	data, c := d.Array(8, 8)
	if d.err != nil || c == 0 {
		return nil
	}
	if Aliasable(data, 8) {
		return unsafe.Slice((*float64)(unsafe.Pointer(&data[0])), c)
	}
	if !d.Alloc(8 * int64(c)) {
		return nil
	}
	out := make([]float64, c)
	for i := range out {
		out[i] = math.Float64frombits(leU64(data, i))
	}
	return out
}
