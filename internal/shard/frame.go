package shard

import (
	"encoding/binary"
	"fmt"
	"math"

	"lof/internal/flatbin"
	"lof/internal/index"
)

// Frames are the bodies of the shard data endpoint, POST
// /v1/shard/candidates: a candidates request and its answer. A frame reuses
// the part snapshot's sectioned layout (flatbin): a fixed little-endian
// header, a section table, then 8-byte-aligned sections:
//
//	offset  field
//	     0  magic "LOFW"
//	     4  u32 format version = 3
//	     8  u8 kind | u8 distinct | u16 zero
//	    12  u32 section count
//	    16  u64 snapshot version (a request's pin, an answer's part)
//	    24  u32 shard (answers)
//	    28  u32 dim
//	    32  section table: count × { u32 id | u32 zero | u64 off | u64 len }
//	     .  sections in table order, each at the first 8-aligned offset
//	        after the previous one, zero padding between, none after:
//	          1 queries    groups·dim × f64
//	          2 counts     groups × u32 (candidates per query)
//	          3 entries    { u32 global id | f64 distance }
//
// Which sections a frame carries is fixed by its kind; see layout. Every
// field of a decoded Frame comes from the bytes and the layout is
// canonical, so an accepted frame re-encodes to exactly its input. The
// decoder sizes every allocation from section lengths it has
// bounds-checked against the input, so a hostile count can never make it
// allocate more than a small multiple of the bytes it got.
// Frames are an internal protocol between a coordinator and its shards of
// the same build: there is no negotiation and no fallback, and a frame of
// another format version is refused — among them version 2, whose distinct
// answers also carried each candidate's coordinates.
const (
	frameMagic      = "LOFW"
	frameVersion    = 3
	frameHeaderSize = 32
	// entrySize is the wire size of one (u32 id, f64 distance) entry.
	entrySize = 12

	fsecQueries = 1
	fsecCounts  = 2
	fsecEntries = 3
)

// Kind says what a frame asks for or answers.
type Kind uint8

const (
	// KindCandidatesRequest asks for each query's kNN candidates among
	// the shard's points (the scatter-gather round).
	KindCandidatesRequest Kind = 1 + iota
	// KindCandidates answers it: per query, (id, distance) entries.
	KindCandidates
)

var kindNames = [...]string{
	KindCandidatesRequest: "candidates request",
	KindCandidates:        "candidates",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Frame is one decoded request or answer. Which fields a kind uses:
//
//	KindCandidatesRequest   Dim, Queries
//	KindCandidates          Counts, Entries
//
// Query g of a request is Queries[g·Dim:(g+1)·Dim], and its candidates in
// the answer are the next Counts[g] entries of Entries. A decoded frame's
// slices may alias the decoded bytes.
type Frame struct {
	Kind     Kind
	Distinct bool
	Version  uint64
	Shard    int
	Dim      int

	Queries []float64
	Counts  []uint32
	Entries []index.Neighbor
}

// layout lists the sections a frame of kind k carries, in table order, or
// nil for an unknown kind.
func layout(k Kind) []uint32 {
	switch k {
	case KindCandidatesRequest:
		return []uint32{fsecQueries}
	case KindCandidates:
		return []uint32{fsecCounts, fsecEntries}
	}
	return nil
}

// field returns a pointer to the frame field section id holds: a
// *[]float64, *[]uint32 or *[]index.Neighbor.
func (f *Frame) field(id uint32) interface{} {
	switch id {
	case fsecQueries:
		return &f.Queries
	case fsecCounts:
		return &f.Counts
	default: // fsecEntries
		return &f.Entries
	}
}

// sectionLen returns the encoded byte length of section id.
func (f *Frame) sectionLen(id uint32) int {
	switch v := f.field(id).(type) {
	case *[]float64:
		return 8 * len(*v)
	case *[]uint32:
		return 4 * len(*v)
	default:
		return entrySize * len(*v.(*[]index.Neighbor))
	}
}

// Groups returns the number of queries a request frame carries.
func (f *Frame) Groups() int {
	if f.Dim <= 0 {
		return 0
	}
	return len(f.Queries) / f.Dim
}

// Query returns request query g's coordinates.
func (f *Frame) Query(g int) []float64 { return f.Queries[g*f.Dim : (g+1)*f.Dim] }

// Size returns the length of the frame's encoding.
func (f *Frame) Size() int {
	ids := layout(f.Kind)
	end := frameHeaderSize + len(ids)*flatbin.SectionEntrySize
	for _, id := range ids {
		end = flatbin.Align8(end) + f.sectionLen(id)
	}
	return end
}

// Encode returns the frame's encoding. A frame whose fields disagree with
// one another (counts that do not sum to the entries, say) encodes to bytes
// DecodeFrame refuses.
func (f *Frame) Encode() []byte {
	le := binary.LittleEndian
	ids := layout(f.Kind)
	b := make([]byte, f.Size())
	copy(b, frameMagic)
	le.PutUint32(b[4:], frameVersion)
	b[8] = uint8(f.Kind)
	b[9] = boolByte(f.Distinct)
	le.PutUint32(b[12:], uint32(len(ids)))
	le.PutUint64(b[16:], f.Version)
	le.PutUint32(b[24:], uint32(f.Shard))
	le.PutUint32(b[28:], uint32(f.Dim))
	off := frameHeaderSize + len(ids)*flatbin.SectionEntrySize
	for i, id := range ids {
		off = flatbin.Align8(off)
		n := f.sectionLen(id)
		copy(b[frameHeaderSize+i*flatbin.SectionEntrySize:], flatbin.AppendSection(nil, flatbin.Section{ID: id, Off: uint64(off), Len: uint64(n)}))
		f.putSection(id, b[off:off+n])
		off += n
	}
	return b
}

// putSection writes section id's payload into b, which has exactly its
// length.
func (f *Frame) putSection(id uint32, b []byte) {
	le := binary.LittleEndian
	switch v := f.field(id).(type) {
	case *[]float64:
		for i, x := range *v {
			le.PutUint64(b[8*i:], math.Float64bits(x))
		}
	case *[]uint32:
		for i, x := range *v {
			le.PutUint32(b[4*i:], x)
		}
	case *[]index.Neighbor:
		for i, e := range *v {
			le.PutUint32(b[entrySize*i:], uint32(e.Index))
			le.PutUint64(b[entrySize*i+4:], math.Float64bits(e.Dist))
		}
	}
}

// DecodeFrame decodes and validates one frame: header, canonical section
// layout, element sizes, and the consistency of counts with the sections
// they index. The returned frame may alias b.
func DecodeFrame(b []byte) (*Frame, error) {
	le := binary.LittleEndian
	if len(b) < len(frameMagic) || string(b[:len(frameMagic)]) != frameMagic {
		return nil, fmt.Errorf("shard: not a shard frame (bad magic %q)", b[:min(len(b), len(frameMagic))])
	}
	if len(b) < frameHeaderSize {
		return nil, fmt.Errorf("shard: frame of %d bytes is shorter than its %d-byte header", len(b), frameHeaderSize)
	}
	if v := le.Uint32(b[4:]); v != frameVersion {
		return nil, fmt.Errorf("shard: frame format version %d, this build speaks %d; run the coordinator and shards from one build", v, frameVersion)
	}
	f := &Frame{
		Kind:    Kind(b[8]),
		Version: le.Uint64(b[16:]),
		Shard:   int(le.Uint32(b[24:])),
		Dim:     int(le.Uint32(b[28:])),
	}
	if b[9] > 1 || b[10] != 0 || b[11] != 0 {
		return nil, fmt.Errorf("shard: invalid frame flags %x", b[9:12])
	}
	f.Distinct = b[9] == 1
	ids := layout(f.Kind)
	if ids == nil {
		return nil, fmt.Errorf("shard: unknown frame kind %d", b[8])
	}
	if n := le.Uint32(b[12:]); n != uint32(len(ids)) {
		return nil, fmt.Errorf("shard: %v frame has %d sections, want %d", f.Kind, n, len(ids))
	}
	secs, err := flatbin.ParseSections(b, frameHeaderSize, len(ids), len(b))
	if err != nil {
		return nil, fmt.Errorf("shard: frame sections: %w", err)
	}
	end := frameHeaderSize + len(ids)*flatbin.SectionEntrySize
	for i, s := range secs {
		if le.Uint32(b[frameHeaderSize+i*flatbin.SectionEntrySize+4:]) != 0 {
			return nil, fmt.Errorf("shard: frame section %d has a nonzero reserved field", i)
		}
		if s.ID != ids[i] {
			return nil, fmt.Errorf("shard: %v frame section %d has id %d, want %d", f.Kind, i, s.ID, ids[i])
		}
		if s.Off != uint64(flatbin.Align8(end)) {
			return nil, fmt.Errorf("shard: frame section %d at offset %d, want %d", i, s.Off, flatbin.Align8(end))
		}
		for _, p := range b[end:s.Off] {
			if p != 0 {
				return nil, fmt.Errorf("shard: nonzero padding before frame section %d", i)
			}
		}
		if err := f.getSection(s.ID, s.Data(b)); err != nil {
			return nil, err
		}
		end = int(s.Off + s.Len)
	}
	if end != len(b) {
		return nil, fmt.Errorf("shard: %d trailing bytes after the last frame section", len(b)-end)
	}
	if err := f.check(); err != nil {
		return nil, err
	}
	return f, nil
}

// getSection decodes section id from its payload b, allocating at most
// what b's length implies: 4- and 8-byte elements are cast in place where
// the platform allows, 12-byte entries decode into 16-byte neighbors.
func (f *Frame) getSection(id uint32, b []byte) error {
	size := entrySize
	switch f.field(id).(type) {
	case *[]float64:
		size = 8
	case *[]uint32:
		size = 4
	}
	if len(b)%size != 0 {
		return fmt.Errorf("shard: frame section %d of %d bytes is not a whole number of %d-byte elements", id, len(b), size)
	}
	switch v := f.field(id).(type) {
	case *[]float64:
		*v, _ = flatbin.Float64s(b)
	case *[]uint32:
		*v, _ = flatbin.Uint32s(b)
	case *[]index.Neighbor:
		nn := make([]index.Neighbor, len(b)/entrySize)
		for i := range nn {
			e := b[entrySize*i:]
			nn[i] = index.Neighbor{Index: int(binary.LittleEndian.Uint32(e)), Dist: math.Float64frombits(binary.LittleEndian.Uint64(e[4:]))}
		}
		*v = nn
	}
	return nil
}

// check validates the decoded sections against each other and the header.
func (f *Frame) check() error {
	if f.Kind == KindCandidatesRequest {
		if f.Dim < 1 || len(f.Queries)%f.Dim != 0 {
			return fmt.Errorf("shard: %v frame holds %d coordinates at dimension %d", f.Kind, len(f.Queries), f.Dim)
		}
		return nil
	}
	if err := sumsTo(f.Counts, len(f.Entries), "candidates"); err != nil {
		return err
	}
	return checkDists(f.Entries)
}

// sumsTo checks that counts add up to n items of the named kind.
func sumsTo(counts []uint32, n int, what string) error {
	var sum uint64
	for _, c := range counts {
		sum += uint64(c)
	}
	if sum != uint64(n) {
		return fmt.Errorf("shard: frame counts sum to %d %s, but it holds %d", sum, what, n)
	}
	return nil
}

// checkDists rejects negative and NaN entry distances.
func checkDists(es []index.Neighbor) error {
	for _, e := range es {
		if !(e.Dist >= 0) {
			return fmt.Errorf("shard: frame entry %d has invalid distance %v", e.Index, e.Dist)
		}
	}
	return nil
}

// Reply returns the kind that answers a request of kind k, or 0 when k is
// not a request.
func (k Kind) Reply() Kind {
	if k == KindCandidatesRequest {
		return KindCandidates
	}
	return 0
}

// CheckReply checks that reply answers req: the matching kind, the pinned
// snapshot version and duplicate semantics, and one candidate list per
// query.
func CheckReply(req, reply *Frame) error {
	if reply.Kind != req.Kind.Reply() {
		return fmt.Errorf("shard: %v answered with a %v frame", req.Kind, reply.Kind)
	}
	if reply.Version != req.Version {
		return fmt.Errorf("shard: answer from snapshot version %d to a request pinned to %d", reply.Version, req.Version)
	}
	if reply.Distinct != req.Distinct {
		return fmt.Errorf("shard: answer distinct=%v to a request with distinct=%v", reply.Distinct, req.Distinct)
	}
	if len(reply.Counts) != req.Groups() {
		return fmt.Errorf("shard: %d candidate lists for %d queries", len(reply.Counts), req.Groups())
	}
	return nil
}
