package shard

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"lof/internal/flatbin"
	"lof/internal/geom"
)

// Part snapshots are the replication unit of the sharded tier: the
// coordinator splits a fitted model's points, encodes each part, and
// pushes the bytes to its shard, which installs them atomically.
//
// The current format (version 3) mirrors the model snapshot's sectioned
// layout: a fixed 64-byte little-endian header, a section table, then
// 8-byte-aligned sections holding the bulk arrays in exactly their
// in-memory layout, and a CRC-32C (Castagnoli) trailer over every
// preceding byte:
//
//	offset  field
//	     0  magic "LOFP"
//	     4  u32 format version = 3
//	     8  u64 snapshot version
//	    16  u32 shard
//	    20  u32 shards
//	    24  u8 partitioner | u8 distinct | u16 zero
//	    28  u32 dim
//	    32  u64 total (global point count)
//	    40  u64 owned (points in this part)
//	    48  u32 k
//	    52  u32 metric name length
//	    56  u32 weight count
//	    60  u32 section count = 4
//	    64  section table: count × { u32 id | u32 zero | u64 off | u64 len }
//	     .  sections (8-aligned, zero padding between):
//	          1 metric name bytes
//	          2 weights       count × f64
//	          3 owned ids     owned × u32, strictly increasing global ids
//	          4 coordinates   owned·dim × f64, row-major local order
//	   end  u32 CRC-32C of every preceding byte
//
// Because the section bytes equal the in-memory bytes, DecodePart on a
// 64-bit little-endian host reinterprets the pushed buffer in place: the
// installed part's ids and coordinates alias the snapshot bytes, so
// installation costs one validation sweep plus the local index build. A
// corrupt or truncated push is a descriptive error on the shard, never a
// silently wrong partition. Parts travel from coordinator to shard and are
// not stored long-term, so the retired formats — the streamed version 1
// and version 2, whose parts also carried their points' materialized rows
// — are refused with a request to re-push from a current coordinator
// rather than decoded.
const (
	partMagic      = "LOFP"
	partVersion    = 3
	partHeaderSize = 64

	psecMetricName = 1
	psecWeights    = 2
	psecIDs        = 3
	psecCoords     = 4
	partSections   = 4
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// EncodePart serializes a part in the current (version 3) sectioned format
// — the payload a coordinator pushes over the replication endpoint.
func EncodePart(p *Part) ([]byte, error) {
	name := p.meta.Metric
	weights := p.meta.Weights
	owned := len(p.ids)
	dim := p.pts.Dim()
	sizes := [partSections]int{len(name), 8 * len(weights), 4 * owned, 8 * owned * dim}
	table := make([]flatbin.Section, partSections)
	off := partHeaderSize + partSections*flatbin.SectionEntrySize
	for i, size := range sizes {
		off = flatbin.Align8(off)
		table[i] = flatbin.Section{ID: uint32(i + 1), Off: uint64(off), Len: uint64(size)}
		off += size
	}
	total := off + 4
	buf := make([]byte, total)

	le := binary.LittleEndian
	copy(buf, partMagic)
	le.PutUint32(buf[4:], partVersion)
	le.PutUint64(buf[8:], p.version)
	le.PutUint32(buf[16:], uint32(p.shardID))
	le.PutUint32(buf[20:], uint32(p.numShards))
	buf[24] = uint8(p.parter)
	buf[25] = boolByte(p.meta.Distinct)
	le.PutUint32(buf[28:], uint32(dim))
	le.PutUint64(buf[32:], uint64(p.meta.Total))
	le.PutUint64(buf[40:], uint64(owned))
	le.PutUint32(buf[48:], uint32(p.meta.K))
	le.PutUint32(buf[52:], uint32(len(name)))
	le.PutUint32(buf[56:], uint32(len(weights)))
	le.PutUint32(buf[60:], partSections)
	for i, s := range table {
		copy(buf[partHeaderSize+i*flatbin.SectionEntrySize:], flatbin.AppendSection(nil, s))
	}

	copy(buf[table[psecMetricName-1].Off:], name)
	q := int(table[psecWeights-1].Off)
	for _, wt := range weights {
		le.PutUint64(buf[q:], flatbin.Float64bitsOf(wt))
		q += 8
	}
	q = int(table[psecIDs-1].Off)
	for _, id := range p.ids {
		le.PutUint32(buf[q:], id)
		q += 4
	}
	q = int(table[psecCoords-1].Off)
	for _, c := range p.pts.Coords() {
		le.PutUint64(buf[q:], flatbin.Float64bitsOf(c))
		q += 8
	}
	le.PutUint32(buf[total-4:], crc32.Checksum(buf[:total-4], crcTable))
	return buf, nil
}

// checkPartHeader vets a part's magic and format version, the first eight
// bytes of every version.
func checkPartHeader(head []byte) error {
	if len(head) < len(partMagic)+4 {
		return fmt.Errorf("shard: part of %d bytes is too short", len(head))
	}
	if string(head[:len(partMagic)]) != partMagic {
		return fmt.Errorf("shard: bad part magic %q", head[:len(partMagic)])
	}
	switch ver := binary.LittleEndian.Uint32(head[len(partMagic):]); {
	case ver > partVersion:
		return fmt.Errorf("shard: part format version %d is newer than the supported %d; upgrade this binary", ver, partVersion)
	case ver == 1 || ver == 2:
		return fmt.Errorf("shard: part format version %d is retired; re-push the part from a current coordinator", ver)
	case ver != partVersion:
		return fmt.Errorf("shard: unsupported part format version %d", ver)
	}
	return nil
}

// ReadPart restores a part from its replication format, verifying the
// checksum and every structural invariant the serving path assumes, and
// builds the local kNN index. The header is vetted before the body is
// read; the body is then read into one exactly sized buffer that the part
// aliases for its lifetime (see DecodePart).
func ReadPart(r io.Reader) (*Part, error) {
	head := make([]byte, len(partMagic)+4)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("shard: reading part header: %w", err)
	}
	if err := checkPartHeader(head); err != nil {
		return nil, err
	}
	rest, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("shard: reading part snapshot: %w", err)
	}
	// io.ReadAll leaves slack capacity that the part would pin; copy into
	// one exactly sized (and 8-aligned) allocation instead.
	all := make([]byte, len(head)+len(rest))
	copy(all[copy(all, head):], rest)
	return DecodePart(all)
}

// DecodePart restores a part from an encoded byte slice, reinterpreting
// the bulk sections in place when alignment and byte order allow: the
// returned part's ids and coordinates alias b, so the caller must not
// modify or recycle b for the part's lifetime. Corruption, truncation,
// retired and newer-than-supported formats all return descriptive errors.
func DecodePart(b []byte) (*Part, error) {
	if err := checkPartHeader(b); err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	if len(b) < partHeaderSize+4 {
		return nil, fmt.Errorf("shard: truncated part header (%d bytes)", len(b))
	}
	payloadEnd := len(b) - 4
	if got, want := crc32.Checksum(b[:payloadEnd], crcTable), le.Uint32(b[payloadEnd:]); got != want {
		return nil, fmt.Errorf("shard: part checksum mismatch (stored %08x, computed %08x): corrupt or truncated snapshot", want, got)
	}

	p := &Part{
		version:   le.Uint64(b[8:]),
		shardID:   int(le.Uint32(b[16:])),
		numShards: int(le.Uint32(b[20:])),
		parter:    Partitioner(b[24]),
	}
	distinctFlag := b[25]
	dim := le.Uint32(b[28:])
	total := le.Uint64(b[32:])
	owned := le.Uint64(b[40:])
	k := le.Uint32(b[48:])
	nameLen := le.Uint32(b[52:])
	wcount := le.Uint32(b[56:])
	seccount := le.Uint32(b[60:])
	if distinctFlag > 1 {
		return nil, fmt.Errorf("shard: invalid distinct flag %d", distinctFlag)
	}
	if b[26] != 0 || b[27] != 0 {
		return nil, fmt.Errorf("shard: nonzero header padding")
	}
	if dim == 0 || dim > 1<<20 {
		return nil, fmt.Errorf("shard: implausible dimensionality %d", dim)
	}
	const maxPoints = 1 << 40
	if total > maxPoints {
		return nil, fmt.Errorf("shard: implausible total point count %d", total)
	}
	if owned > total {
		return nil, fmt.Errorf("shard: part claims %d owned points of %d total", owned, total)
	}
	p.meta = Meta{Total: int(total), K: int(k), Distinct: distinctFlag == 1}
	if seccount != partSections {
		return nil, fmt.Errorf("shard: part has %d sections, want %d", seccount, partSections)
	}
	secs, err := flatbin.ParseSections(b, partHeaderSize, int(seccount), payloadEnd)
	if err != nil {
		return nil, fmt.Errorf("shard: part sections: %w", err)
	}
	section := func(id uint32, wantLen uint64, what string) ([]byte, error) {
		s, ok := flatbin.SectionByID(secs, id)
		if !ok {
			return nil, fmt.Errorf("shard: part is missing its %s section", what)
		}
		if s.Len != wantLen {
			return nil, fmt.Errorf("shard: %s section holds %d bytes, want %d", what, s.Len, wantLen)
		}
		return s.Data(b), nil
	}

	nameB, err := section(psecMetricName, uint64(nameLen), "metric name")
	if err != nil {
		return nil, err
	}
	p.meta.Metric = string(nameB)
	weightB, err := section(psecWeights, 8*uint64(wcount), "weights")
	if err != nil {
		return nil, err
	}
	if wcount > 0 {
		wv, _ := flatbin.Float64s(weightB)
		// Meta escapes through p.Meta(); keep the weights off the mapping.
		p.meta.Weights = append([]float64(nil), wv...)
	}
	idB, err := section(psecIDs, 4*owned, "owned ids")
	if err != nil {
		return nil, err
	}
	p.ids, _ = flatbin.Uint32s(idB)
	coordB, err := section(psecCoords, 8*owned*uint64(dim), "coordinates")
	if err != nil {
		return nil, err
	}
	coords, _ := flatbin.Float64s(coordB)
	p.pts, err = geom.FromSlice(coords, int(dim))
	if err != nil {
		return nil, fmt.Errorf("shard: part coordinates: %w", err)
	}
	if err := p.finish(); err != nil {
		return nil, err
	}
	return p, nil
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
