package wire

import (
	"math"
	"strings"
	"testing"
)

// decoderOver returns a decoder over a copy of b whose first byte sits
// misalign bytes past a 64-byte boundary, so tests can place payloads at
// aligned and misaligned addresses at will.
func decoderOver(b []byte, misalign int) *Decoder {
	backing := make([]byte, len(b)+2*SectionAlign)
	base := 0
	for !Aliasable(backing[base:], SectionAlign) {
		base++
	}
	buf := backing[base+misalign : base+misalign+len(b)]
	copy(buf, b)
	return NewDecoder("test", buf)
}

func TestUvarintRoundTripAndLimits(t *testing.T) {
	vals := []uint64{0, 1, 127, 128, 1<<32 - 1, 1 << 35, math.MaxUint64}
	var e Encoder
	for _, v := range vals {
		e.Uvarint(v)
	}
	d := NewDecoder("uvarint", e.Bytes())
	for _, want := range vals {
		if got := d.Uvarint(); got != want {
			t.Fatalf("uvarint round trip: got %d, want %d", got, want)
		}
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if n := len(binaryUvarint(math.MaxUint64)); n != 10 {
		t.Fatalf("MaxUint64 encodes in %d bytes, want 10", n)
	}

	cases := map[string][]byte{
		"empty":             {},
		"truncated":         {0x80, 0x80},
		"10-byte overflow":  {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		"11-byte overlong":  {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00},
		"truncated at ten":  {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		"continuation tail": {0x81},
	}
	for name, b := range cases {
		d := NewDecoder("uvarint", b)
		if got := d.Uvarint(); got != 0 || d.Err() == nil {
			t.Errorf("%s: Uvarint = %d, err %v; want 0 and an error", name, got, d.Err())
		}
		// The error is sticky: later reads return zero values.
		if d.Byte() != 0 || d.Finish() == nil {
			t.Errorf("%s: decoder not sticky after a varint error", name)
		}
	}
}

func TestVarintRoundTripAndLimits(t *testing.T) {
	vals := []int64{0, -1, 1, -64, 64, math.MinInt32, math.MaxInt32, math.MinInt64, math.MaxInt64}
	var e Encoder
	for _, v := range vals {
		e.Varint(v)
	}
	d := NewDecoder("varint", e.Bytes())
	for _, want := range vals {
		if got := d.Varint(); got != want {
			t.Fatalf("varint round trip: got %d, want %d", got, want)
		}
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{
		"truncated":        {0xfe},
		"10-byte overflow": {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
	} {
		d := NewDecoder("varint", b)
		if got := d.Varint(); got != 0 || d.Err() == nil {
			t.Errorf("%s: Varint = %d, err %v; want 0 and an error", name, got, d.Err())
		}
	}
}

// binaryUvarint is the encoder's output for one value.
func binaryUvarint(x uint64) []byte {
	var e Encoder
	e.Uvarint(x)
	return e.Bytes()
}

// TestArrayMisalignedOffsets writes arrays behind prefixes of every length
// up to the widest alignment and decodes them from buffers based at every
// offset from a 64-byte boundary: the header padding must always land the
// payload where the decoder expects it, aligned bases alias, misaligned
// ones fall back to copies, and every value must come back exactly.
func TestArrayMisalignedOffsets(t *testing.T) {
	u32 := []uint32{0, 1, 0xdeadbeef, math.MaxUint32}
	u16 := []uint16{0, 1, 0xbeef, math.MaxUint16}
	f64 := []float64{0, -1.5, math.Inf(1), math.SmallestNonzeroFloat64}
	for prefix := 0; prefix < 8; prefix++ {
		var e Encoder
		for i := 0; i < prefix; i++ {
			e.Byte(0xaa)
		}
		e.Uint32Array(u32)
		e.Uint16Array(u16)
		e.Float64Array(f64)
		for misalign := 0; misalign < 8; misalign++ {
			d := decoderOver(e.Bytes(), misalign)
			for i := 0; i < prefix; i++ {
				d.Byte()
			}
			got32 := d.Uint32Array()
			got16 := d.Uint16Array()
			gotF := d.Float64Array()
			if err := d.Finish(); err != nil {
				t.Fatalf("prefix %d misalign %d: %v", prefix, misalign, err)
			}
			for i := range u32 {
				if got32[i] != u32[i] || got16[i] != u16[i] || math.Float64bits(gotF[i]) != math.Float64bits(f64[i]) {
					t.Fatalf("prefix %d misalign %d: element %d = (%d, %d, %v), want (%d, %d, %v)",
						prefix, misalign, i, got32[i], got16[i], gotF[i], u32[i], u16[i], f64[i])
				}
			}
		}
	}
}

// TestArrayHeaderRejects covers corrupt array headers: a count whose
// count*width exceeds the payload (up to the u32 maximum, where a 32-bit
// product would overflow), a width or alignment other than the caller's,
// and a payload cut short. None may panic or allocate the claimed size.
func TestArrayHeaderRejects(t *testing.T) {
	header := func(width, align byte, count uint32, payload int) []byte {
		var e Encoder
		e.Byte(width)
		e.Byte(align)
		e.Uint32(count)
		for e.Len()%int(max(align, 1)) != 0 {
			e.Byte(0)
		}
		for i := 0; i < payload; i++ {
			e.Byte(0)
		}
		return e.Bytes()
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"count*width overflows 32 bits", header(4, 4, math.MaxUint32, 16), "exceeds remaining"},
		{"count*width past payload", header(4, 4, 5, 16), "exceeds remaining"},
		{"width mismatch", header(2, 4, 1, 4), "expected 4/4"},
		{"align mismatch", header(4, 8, 1, 4), "expected 4/4"},
		{"header cut short", []byte{4, 4, 1, 0}, "truncated"},
		{"empty", nil, "truncated"},
	}
	for _, c := range cases {
		d := NewDecoder("array", c.data)
		if got := d.Uint32Array(); got != nil {
			t.Errorf("%s: decoded %d elements from a corrupt header", c.name, len(got))
		}
		if d.Err() == nil || !strings.Contains(d.Err().Error(), c.want) {
			t.Errorf("%s: err %v, want one mentioning %q", c.name, d.Err(), c.want)
		}
	}
	// An empty array is valid and decodes to nil.
	var e Encoder
	e.Uint32Array(nil)
	d := NewDecoder("array", e.Bytes())
	if got := d.Uint32Array(); got != nil || d.Finish() != nil {
		t.Fatalf("empty array: got %v, err %v", got, d.Finish())
	}
}

// TestArrayCopyChargesBudget: a misaligned (copied) array is charged
// against the decode budget, and an exhausted budget rejects it.
func TestArrayCopyChargesBudget(t *testing.T) {
	var e Encoder
	e.Uint32Array([]uint32{1, 2, 3, 4})
	d := decoderOver(e.Bytes(), 1)
	budget := int64(15)
	d.budget = &budget
	if got := d.Uint32Array(); got != nil || d.Err() == nil || !strings.Contains(d.Err().Error(), "decode budget") {
		t.Fatalf("16-byte copy under a 15-byte budget: got %v, err %v", got, d.Err())
	}
	d = decoderOver(e.Bytes(), 1)
	budget = 16
	d.budget = &budget
	if got := d.Uint32Array(); len(got) != 4 || budget != 0 {
		t.Fatalf("16-byte copy under a 16-byte budget: got %v, budget left %d", got, budget)
	}
	if d.Alloc(-1) || d.Err() == nil {
		t.Fatal("negative allocation accepted")
	}
}

func TestFloatSeqRoundTrip(t *testing.T) {
	cases := map[string]struct {
		xs  []float64
		tag byte
	}{
		"empty":              {nil, floatSeqIntegral},
		"integral":           {[]float64{0, 1, 17, 1 << 40, maxExactFloat}, floatSeqIntegral},
		"beyond 2^53":        {[]float64{1, maxExactFloat + 2}, floatSeqRaw},
		"fractional":         {[]float64{1, 2.5}, floatSeqRaw},
		"negative":           {[]float64{3, -1}, floatSeqRaw},
		"negative zero":      {[]float64{math.Copysign(0, -1)}, floatSeqRaw},
		"inf and nan":        {[]float64{math.Inf(1), math.NaN(), math.Inf(-1)}, floatSeqRaw},
		"smallest subnormal": {[]float64{math.SmallestNonzeroFloat64}, floatSeqRaw},
	}
	for name, c := range cases {
		var e Encoder
		e.FloatSeq(c.xs)
		if tag := e.Bytes()[0]; tag != c.tag {
			t.Errorf("%s: tag %d, want %d", name, tag, c.tag)
		}
		out := make([]float64, len(c.xs))
		d := NewDecoder("floats", e.Bytes())
		d.FloatSeq(out)
		if err := d.Finish(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range c.xs {
			// -0 must stay -0 and NaN payloads must survive: compare bits.
			if math.Float64bits(out[i]) != math.Float64bits(c.xs[i]) {
				t.Errorf("%s: element %d = %v, want %v", name, i, out[i], c.xs[i])
			}
		}
	}
	for name, b := range map[string][]byte{
		"bad tag":        {7, 1},
		"truncated raw":  {floatSeqRaw, 1, 2, 3},
		"truncated uvar": {floatSeqIntegral, 0x80},
	} {
		d := NewDecoder("floats", b)
		d.FloatSeq(make([]float64, 1))
		if d.Err() == nil {
			t.Errorf("%s: decoded without an error", name)
		}
	}
}

func TestDecoderFinish(t *testing.T) {
	var e Encoder
	e.Uint32(7)
	e.Byte(1)
	d := NewDecoder("finish", e.Bytes())
	d.Uint32()
	if err := d.Finish(); err == nil || !strings.Contains(err.Error(), "1 trailing bytes") {
		t.Fatalf("Finish with a trailing byte: %v", err)
	}
	d.Byte()
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish on a consumed section: %v", err)
	}
	// A read past the end fails, and Finish reports that failure rather
	// than the (zero) remaining count.
	d.Byte()
	if err := d.Finish(); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("Finish after an overrun: %v", err)
	}
	// The first error wins over later ones.
	d = NewDecoder("finish", []byte{2})
	d.Bool()
	d.Uint64()
	if err := d.Finish(); err == nil || !strings.Contains(err.Error(), "invalid bool") {
		t.Fatalf("sticky error: %v", err)
	}
}
