package shard

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"lof/internal/flatbin"
	"lof/internal/geom"
	"lof/internal/index"
)

// Part snapshots are the replication unit of the sharded tier: the
// coordinator splits a fitted model, encodes each part, and pushes the
// bytes to its shard, which installs them atomically.
//
// The current format (version 2) mirrors the model snapshot's sectioned
// layout: a fixed 72-byte little-endian header, a section table, then
// 8-byte-aligned sections holding the bulk arrays in exactly their
// in-memory layout, and a CRC-32C (Castagnoli) trailer over every
// preceding byte:
//
//	offset  field
//	     0  magic "LOFP"
//	     4  u32 format version = 2
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
//	    60  u32 halo count
//	    64  u32 section count
//	    68  u32 zero
//	    72  section table: count × { u32 id | u32 zero | u64 off | u64 len }
//	     .  sections (8-aligned, zero padding between):
//	          1 metric name bytes
//	          2 weights       count × f64
//	          3 owned ids     owned × u32, strictly increasing global ids
//	          4 coordinates   owned·dim × f64, row-major local order
//	          5 row offsets   (owned+1) × u64 prefix counts into section 6
//	          6 neighbors     total × { u64 global id | f64 dist }
//	          7 rank offsets  (owned+1) × u64 (distinct only)
//	          8 ranks         total × i32 (distinct only)
//	          9 halo ids      halo × u32, ascending (distinct only)
//	         10 halo coords   halo·dim × f64 (distinct only)
//	   end  u32 CRC-32C of every preceding byte
//
// Because the section bytes equal the in-memory bytes, DecodePart on a
// 64-bit little-endian host reinterprets the pushed buffer in place: the
// installed part's coordinates, neighbor rows and ranks alias the snapshot
// bytes, so installation costs one validation sweep plus the local index
// rebuild, not a decode of the bulk data. A corrupt or truncated push is a
// descriptive error on the shard, never a silently wrong partition. Parts
// travel from coordinator to shard and are not stored long-term, so the
// retired streamed format (version 1) is refused with a request to re-push
// from a current coordinator rather than decoded.
const (
	partMagic   = "LOFP"
	partVersion = 2

	partV2HeaderSize = 72

	psecMetricName = 1
	psecWeights    = 2
	psecIDs        = 3
	psecCoords     = 4
	psecRowOffsets = 5
	psecNeighbors  = 6
	psecRankOffs   = 7
	psecRanks      = 8
	psecHaloIDs    = 9
	psecHaloCoords = 10
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// EncodePart serializes a part in the current (version 2) sectioned format
// — the payload a coordinator pushes over the replication endpoint.
func EncodePart(p *Part) ([]byte, error) {
	name := p.meta.Metric
	weights := p.meta.Weights
	owned := len(p.ids)
	dim := p.pts.Dim()
	entries := 0
	for _, nn := range p.rows {
		entries += len(nn)
	}
	distinct := p.meta.Distinct
	var hids []uint32
	rankEntries := 0
	if distinct {
		for _, rk := range p.rks {
			rankEntries += len(rk)
		}
		// Deterministic halo order: ascending id, so identical parts encode
		// to identical bytes.
		hids = make([]uint32, 0, len(p.halo))
		for id := range p.halo {
			hids = append(hids, id)
		}
		sortU32(hids)
	}

	type sec struct {
		id   uint32
		size int
	}
	secs := []sec{
		{psecMetricName, len(name)},
		{psecWeights, 8 * len(weights)},
		{psecIDs, 4 * owned},
		{psecCoords, 8 * owned * dim},
		{psecRowOffsets, 8 * (owned + 1)},
		{psecNeighbors, flatbin.NeighborEntrySize * entries},
	}
	if distinct {
		secs = append(secs,
			sec{psecRankOffs, 8 * (owned + 1)},
			sec{psecRanks, 4 * rankEntries},
			sec{psecHaloIDs, 4 * len(hids)},
			sec{psecHaloCoords, 8 * len(hids) * dim})
	}
	tableOff := partV2HeaderSize
	off := tableOff + len(secs)*flatbin.SectionEntrySize
	table := make([]flatbin.Section, len(secs))
	for i, s := range secs {
		off = flatbin.Align8(off)
		table[i] = flatbin.Section{ID: s.id, Off: uint64(off), Len: uint64(s.size)}
		off += s.size
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
	buf[25] = boolByte(distinct)
	le.PutUint32(buf[28:], uint32(dim))
	le.PutUint64(buf[32:], uint64(p.meta.Total))
	le.PutUint64(buf[40:], uint64(owned))
	le.PutUint32(buf[48:], uint32(p.meta.K))
	le.PutUint32(buf[52:], uint32(len(name)))
	le.PutUint32(buf[56:], uint32(len(weights)))
	le.PutUint32(buf[60:], uint32(len(hids)))
	le.PutUint32(buf[64:], uint32(len(secs)))
	for i, s := range table {
		copy(buf[tableOff+i*flatbin.SectionEntrySize:], flatbin.AppendSection(nil, s))
	}

	at := func(id uint32) int {
		s, _ := flatbin.SectionByID(table, id)
		return int(s.Off)
	}
	copy(buf[at(psecMetricName):], name)
	q := at(psecWeights)
	for _, wt := range weights {
		le.PutUint64(buf[q:], flatbin.Float64bitsOf(wt))
		q += 8
	}
	q = at(psecIDs)
	for _, id := range p.ids {
		le.PutUint32(buf[q:], id)
		q += 4
	}
	q = at(psecCoords)
	for _, c := range p.pts.Coords() {
		le.PutUint64(buf[q:], flatbin.Float64bitsOf(c))
		q += 8
	}
	rp := at(psecRowOffsets)
	np := at(psecNeighbors)
	var cum uint64
	for _, nn := range p.rows {
		le.PutUint64(buf[rp:], cum)
		rp += 8
		cum += uint64(len(nn))
		for _, nb := range nn {
			le.PutUint64(buf[np:], uint64(int64(nb.Index)))
			le.PutUint64(buf[np+8:], flatbin.Float64bitsOf(nb.Dist))
			np += flatbin.NeighborEntrySize
		}
	}
	le.PutUint64(buf[rp:], cum)
	if distinct {
		rp = at(psecRankOffs)
		kp := at(psecRanks)
		cum = 0
		for _, rk := range p.rks {
			le.PutUint64(buf[rp:], cum)
			rp += 8
			cum += uint64(len(rk))
			for _, v := range rk {
				le.PutUint32(buf[kp:], uint32(v))
				kp += 4
			}
		}
		le.PutUint64(buf[rp:], cum)
		q = at(psecHaloIDs)
		hp := at(psecHaloCoords)
		for _, id := range hids {
			le.PutUint32(buf[q:], id)
			q += 4
			for _, c := range p.halo[id] {
				le.PutUint64(buf[hp:], flatbin.Float64bitsOf(c))
				hp += 8
			}
		}
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
	case ver == 1:
		return fmt.Errorf("shard: part format version 1 is retired; re-push the part from a current coordinator")
	case ver != partVersion:
		return fmt.Errorf("shard: unsupported part format version %d", ver)
	}
	return nil
}

// ReadPart restores a part from its replication format, verifying the
// checksum and every structural invariant the serving path assumes, and
// rebuilds the local kNN index. The header is vetted before the body is
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
// returned part's coordinates, neighbor rows and ranks alias b, so the
// caller must not modify or recycle b for the part's lifetime. Corruption,
// truncation, retired and newer-than-supported formats all return
// descriptive errors.
func DecodePart(b []byte) (*Part, error) {
	if err := checkPartHeader(b); err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	if len(b) < partV2HeaderSize+4 {
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
	hcount := le.Uint32(b[60:])
	seccount := le.Uint32(b[64:])
	if distinctFlag > 1 {
		return nil, fmt.Errorf("shard: invalid distinct flag %d", distinctFlag)
	}
	if b[26] != 0 || b[27] != 0 || le.Uint32(b[68:]) != 0 {
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
	if uint64(hcount) > total {
		return nil, fmt.Errorf("shard: part claims %d halo points of %d total", hcount, total)
	}
	distinct := distinctFlag == 1
	p.meta = Meta{Total: int(total), K: int(k), Distinct: distinct}
	wantSecs := uint32(6)
	if distinct {
		wantSecs = 10
	}
	if seccount != wantSecs {
		return nil, fmt.Errorf("shard: part has %d sections, want %d", seccount, wantSecs)
	}
	secs, err := flatbin.ParseSections(b, partV2HeaderSize, int(seccount), payloadEnd)
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
	rowOffB, err := section(psecRowOffsets, 8*(owned+1), "row offsets")
	if err != nil {
		return nil, err
	}
	rowOffs, _ := flatbin.Uint64s(rowOffB)
	nbrSec, ok := flatbin.SectionByID(secs, psecNeighbors)
	if !ok {
		return nil, fmt.Errorf("shard: part is missing its neighbors section")
	}
	if nbrSec.Len%flatbin.NeighborEntrySize != 0 {
		return nil, fmt.Errorf("shard: neighbors section of %d bytes is not a whole number of entries", nbrSec.Len)
	}
	flat, _ := flatbin.Neighbors(nbrSec.Data(b))
	if rowOffs[0] != 0 || rowOffs[owned] != uint64(len(flat)) {
		return nil, fmt.Errorf("shard: row offsets span [%d, %d), want [0, %d)", rowOffs[0], rowOffs[owned], len(flat))
	}
	p.rows = make([][]index.Neighbor, owned)
	for i := uint64(0); i < owned; i++ {
		lo, hi := rowOffs[i], rowOffs[i+1]
		if lo > hi {
			return nil, fmt.Errorf("shard: row %d offsets decrease (%d > %d)", i, lo, hi)
		}
		nn := flat[lo:hi:hi]
		for _, nb := range nn {
			if nb.Index < 0 || uint64(nb.Index) >= total {
				return nil, fmt.Errorf("shard: row %d references neighbor id %d outside total %d", i, nb.Index, total)
			}
			if math.IsNaN(nb.Dist) || math.IsInf(nb.Dist, 0) || nb.Dist < 0 {
				return nil, fmt.Errorf("shard: row %d has invalid neighbor distance %v", i, nb.Dist)
			}
		}
		p.rows[i] = nn
	}
	if distinct {
		rankOffB, err := section(psecRankOffs, 8*(owned+1), "rank offsets")
		if err != nil {
			return nil, err
		}
		rankSec, ok := flatbin.SectionByID(secs, psecRanks)
		if !ok {
			return nil, fmt.Errorf("shard: part is missing its ranks section")
		}
		if rankSec.Len%4 != 0 {
			return nil, fmt.Errorf("shard: ranks section of %d bytes is not a whole number of entries", rankSec.Len)
		}
		rankOffs, _ := flatbin.Uint64s(rankOffB)
		ranks, _ := flatbin.Int32s(rankSec.Data(b))
		if rankOffs[0] != 0 || rankOffs[owned] != uint64(len(ranks)) {
			return nil, fmt.Errorf("shard: rank offsets span [%d, %d), want [0, %d)", rankOffs[0], rankOffs[owned], len(ranks))
		}
		p.rks = make([][]int32, owned)
		for i := uint64(0); i < owned; i++ {
			lo, hi := rankOffs[i], rankOffs[i+1]
			if lo > hi {
				return nil, fmt.Errorf("shard: row %d rank offsets decrease (%d > %d)", i, lo, hi)
			}
			rk := ranks[lo:hi:hi]
			for _, v := range rk {
				if v < 0 || int(v) >= len(p.rows[i]) {
					return nil, fmt.Errorf("shard: row %d rank %d outside its %d neighbors", i, v, len(p.rows[i]))
				}
			}
			p.rks[i] = rk
		}
		hidB, err := section(psecHaloIDs, 4*uint64(hcount), "halo ids")
		if err != nil {
			return nil, err
		}
		hcoordB, err := section(psecHaloCoords, 8*uint64(hcount)*uint64(dim), "halo coordinates")
		if err != nil {
			return nil, err
		}
		hids, _ := flatbin.Uint32s(hidB)
		hcoords, _ := flatbin.Float64s(hcoordB)
		p.halo = make(map[uint32]geom.Point, hcount)
		for i := uint32(0); i < hcount; i++ {
			pt := geom.Point(hcoords[uint64(i)*uint64(dim) : uint64(i+1)*uint64(dim)])
			if !pt.Valid() {
				return nil, fmt.Errorf("shard: halo point %d has non-finite coordinates", hids[i])
			}
			p.halo[hids[i]] = pt
		}
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

func sortU32(s []uint32) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
