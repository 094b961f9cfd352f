package flatbin

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"lof/internal/index"
)

// TestWriterReaderRoundtrip encodes one value of every width with the
// stdlib little-endian appenders the snapshot encoders use and decodes it
// with Reader.
func TestWriterReaderRoundtrip(t *testing.T) {
	le := binary.LittleEndian
	var b []byte
	b = append(b, 7)
	b = le.AppendUint16(b, 0xbeef)
	b = le.AppendUint32(b, 0xdeadbeef)
	b = le.AppendUint64(b, 0x0123456789abcdef)
	b = le.AppendUint32(b, uint32(0xffffffd6)) // int32(-42)
	b = le.AppendUint64(b, math.Float64bits(math.Pi))
	b = append(b, "metric"...)

	r := NewReader(bytes.NewReader(b))
	if v := r.U8(); v != 7 {
		t.Fatalf("U8 = %d", v)
	}
	if v := r.U16(); v != 0xbeef {
		t.Fatalf("U16 = %#x", v)
	}
	if v := r.U32(); v != 0xdeadbeef {
		t.Fatalf("U32 = %#x", v)
	}
	if v := r.U64(); v != 0x0123456789abcdef {
		t.Fatalf("U64 = %#x", v)
	}
	if v := r.I32(); v != -42 {
		t.Fatalf("I32 = %d", v)
	}
	if v := r.F64(); v != math.Pi {
		t.Fatalf("F64 = %v", v)
	}
	name := make([]byte, 6)
	r.Full(name)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if string(name) != "metric" {
		t.Fatalf("string = %q", name)
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{1, 2}))
	_ = r.U64() // short read
	if r.Err() == nil {
		t.Fatal("expected error from short read")
	}
	if v := r.U32(); v != 0 {
		t.Fatalf("post-error read returned %d, want 0", v)
	}
	if err := r.Context("reading field %d", 3); err == nil {
		t.Fatal("Context should wrap the sticky error")
	}
}

func TestFloat64sCast(t *testing.T) {
	want := []float64{1.5, -2.25, math.Inf(1), 0}
	var b []byte
	for _, v := range want {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	got, _ := Float64s(b)
	if len(got) != len(want) {
		t.Fatalf("got %d values", len(got))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("value %d: %v != %v", i, got[i], want[i])
		}
	}
	// Misaligned input must still decode correctly (by copy).
	shifted := append(make([]byte, 1, 1+len(b)), b...)
	got2, zc := Float64s(shifted[1:])
	if zc && !aligned(shifted[1:], 8) {
		t.Fatal("claimed zero-copy on misaligned input")
	}
	for i := range want {
		if math.Float64bits(got2[i]) != math.Float64bits(want[i]) {
			t.Fatalf("misaligned value %d: %v != %v", i, got2[i], want[i])
		}
	}
}

func TestNeighborsCast(t *testing.T) {
	want := []index.Neighbor{{Index: 0, Dist: 0.5}, {Index: 1 << 33, Dist: math.Pi}, {Index: 7, Dist: 0}}
	var b []byte
	for _, nb := range want {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(nb.Index)))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(nb.Dist))
	}
	if len(b) != len(want)*NeighborEntrySize {
		t.Fatalf("encoded %d bytes", len(b))
	}
	got, _ := Neighbors(b)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestSectionTable(t *testing.T) {
	// Simulate a file: 8-byte header, 2-entry table, two sections, trailer.
	tableOff := 8
	s1 := Section{ID: 1, Off: uint64(tableOff + 2*SectionEntrySize), Len: 5}
	s2 := Section{ID: 2, Off: uint64(Align8(int(s1.Off + s1.Len))), Len: 16}
	end := int(s2.Off + s2.Len)
	file := make([]byte, end+4)
	table := AppendSection(nil, s1)
	table = AppendSection(table, s2)
	copy(file[tableOff:], table)

	ss, err := ParseSections(file, tableOff, 2, end)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := SectionByID(ss, 2); !ok || got != s2 {
		t.Fatalf("section 2 = %+v, %v", got, ok)
	}
	if d := ss[0].Data(file); len(d) != 5 {
		t.Fatalf("section 1 data length %d", len(d))
	}

	// Overlap, misalignment and overflow must all be rejected.
	bad := append([]byte(nil), file...)
	copy(bad[tableOff:], AppendSection(AppendSection(nil, s1), Section{ID: 2, Off: s1.Off, Len: 8}))
	if _, err := ParseSections(bad, tableOff, 2, end); err == nil {
		t.Fatal("overlapping sections accepted")
	}
	bad = append([]byte(nil), file...)
	copy(bad[tableOff:], AppendSection(nil, Section{ID: 1, Off: s1.Off + 1, Len: 4}))
	if _, err := ParseSections(bad, tableOff, 2, end); err == nil {
		t.Fatal("misaligned section accepted")
	}
	bad = append([]byte(nil), file...)
	copy(bad[tableOff:], AppendSection(AppendSection(nil, s1), Section{ID: 2, Off: s2.Off, Len: 1 << 40}))
	if _, err := ParseSections(bad, tableOff, 2, end); err == nil {
		t.Fatal("out-of-bounds section accepted")
	}
}
