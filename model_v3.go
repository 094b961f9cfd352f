package lof

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"lof/internal/flatbin"
	"lof/internal/geom"
	"lof/internal/matdb"
)

// Snapshot format version 3 — the flat, sectioned, mmap-able layout.
//
//	offset  field
//	     0  magic "LOFS"
//	     4  u32 version = 3
//	     8  u32 minPtsLB
//	    12  u32 minPtsUB
//	    16  u8 aggregation | u8 distinct | u8 index | u8 zero
//	    20  u32 dim
//	    24  u64 n
//	    32  u32 K (materialized neighborhood size)
//	    36  u32 metric name length
//	    40  u32 weight count
//	    44  u32 section count
//	    48  section table: count × { u32 id | u32 zero | u64 off | u64 len }
//	     .  sections, each starting at an 8-aligned offset, zero padding
//	        between them:
//	          1 metric name bytes
//	          2 weights             weightCount × f64
//	          3 coordinates         n·dim × f64, packed row-major
//	          4 row offsets         (n+1) × u64 prefix counts into section 5
//	          5 neighbor entries    total × { u64 index | f64 dist }
//	          6 rank offsets        (n+1) × u64 prefix counts into section 7
//	            (distinct only)
//	          7 ranks               total × i32 (distinct only)
//	   end  u32 CRC-32C (Castagnoli) of every preceding byte
//
// Sections 3–7 store their payloads in exactly the in-memory layout of the
// serving structures (geom.Store backing block, matdb's compacted flat
// neighbor array), so LoadModelBytes on a 64-bit little-endian host
// reinterprets them in place — a model restored from an mmap'd file serves
// straight out of the page cache, paying one validation sweep and an index
// rebuild but no decode or copy of the bulk data. On other hosts, or for
// misaligned input, the casts silently fall back to copying; the loaded
// model is identical either way.

const (
	v3HeaderSize = 48

	secMetricName  = 1
	secWeights     = 2
	secCoords      = 3
	secRowOffsets  = 4
	secNeighbors   = 5
	secRankOffsets = 6
	secRanks       = 7
)

// encodeV3 assembles the version-3 snapshot in one sized allocation.
func (m *Model) encodeV3() []byte {
	n := m.pts.Len()
	dim := m.pts.Dim()
	name := m.cfg.Metric
	weights := m.cfg.Weights
	distinct := m.db.IsDistinct()
	entries := m.db.Entries()

	type sec struct {
		id   uint32
		size int
	}
	secs := []sec{
		{secMetricName, len(name)},
		{secWeights, 8 * len(weights)},
		{secCoords, 8 * n * dim},
		{secRowOffsets, 8 * (n + 1)},
		{secNeighbors, flatbin.NeighborEntrySize * entries},
	}
	if distinct {
		secs = append(secs,
			sec{secRankOffsets, 8 * (n + 1)},
			sec{secRanks, 4 * m.db.RankEntries()})
	}
	tableOff := v3HeaderSize
	off := tableOff + len(secs)*flatbin.SectionEntrySize
	table := make([]flatbin.Section, len(secs))
	for i, s := range secs {
		off = flatbin.Align8(off)
		table[i] = flatbin.Section{ID: s.id, Off: uint64(off), Len: uint64(s.size)}
		off += s.size
	}
	total := off + 4 // CRC trailer
	buf := make([]byte, total)

	copy(buf, modelMagic)
	le := binary.LittleEndian
	le.PutUint32(buf[4:], modelVersion)
	le.PutUint32(buf[8:], uint32(m.cfg.MinPtsLB))
	le.PutUint32(buf[12:], uint32(m.cfg.MinPtsUB))
	buf[16] = uint8(m.cfg.Aggregation)
	buf[17] = boolByte(distinct)
	buf[18] = uint8(m.cfg.Index)
	le.PutUint32(buf[20:], uint32(dim))
	le.PutUint64(buf[24:], uint64(n))
	le.PutUint32(buf[32:], uint32(m.db.K))
	le.PutUint32(buf[36:], uint32(len(name)))
	le.PutUint32(buf[40:], uint32(len(weights)))
	le.PutUint32(buf[44:], uint32(len(secs)))
	for i, s := range table {
		copy(buf[tableOff+i*flatbin.SectionEntrySize:], flatbin.AppendSection(nil, s))
	}

	at := func(id uint32) int {
		s, _ := flatbin.SectionByID(table, id)
		return int(s.Off)
	}
	copy(buf[at(secMetricName):], name)
	p := at(secWeights)
	for _, w := range weights {
		le.PutUint64(buf[p:], flatbin.Float64bitsOf(w))
		p += 8
	}
	p = at(secCoords)
	for _, c := range m.pts.Coords() {
		le.PutUint64(buf[p:], flatbin.Float64bitsOf(c))
		p += 8
	}
	rp := at(secRowOffsets)
	np := at(secNeighbors)
	var cum uint64
	for i := 0; i < n; i++ {
		le.PutUint64(buf[rp:], cum)
		rp += 8
		row := m.db.Neighbors[i]
		cum += uint64(len(row))
		for _, nb := range row {
			le.PutUint64(buf[np:], uint64(int64(nb.Index)))
			le.PutUint64(buf[np+8:], flatbin.Float64bitsOf(nb.Dist))
			np += flatbin.NeighborEntrySize
		}
	}
	le.PutUint64(buf[rp:], cum)
	if distinct {
		rp = at(secRankOffsets)
		kp := at(secRanks)
		cum = 0
		for i := 0; i < n; i++ {
			le.PutUint64(buf[rp:], cum)
			rp += 8
			ranks := m.db.RanksOf(i)
			cum += uint64(len(ranks))
			for _, rk := range ranks {
				le.PutUint32(buf[kp:], uint32(rk))
				kp += 4
			}
		}
		le.PutUint64(buf[rp:], cum)
	}
	le.PutUint32(buf[total-4:], crc32.Checksum(buf[:total-4], crcTable))
	return buf
}

// LoadModelBytes restores a model from an in-memory snapshot image — file
// bytes read or mmap'd by the caller. Snapshots load zero-copy where the
// platform allows: the returned model's coordinates and materialized rows
// alias b, so b must stay valid (and unmodified) for the model's lifetime.
// Corruption, truncation, misaligned or overlapping sections, retired and
// newer-than-supported versions all return descriptive errors.
func LoadModelBytes(b []byte) (*Model, error) {
	if err := checkModelHeader(b); err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	if len(b) < v3HeaderSize+4 {
		return nil, fmt.Errorf("lof: truncated snapshot header (%d bytes)", len(b))
	}
	payloadEnd := len(b) - 4
	if got, want := crc32.Checksum(b[:payloadEnd], crcTable), le.Uint32(b[payloadEnd:]); got != want {
		return nil, fmt.Errorf("lof: snapshot checksum mismatch (stored %08x, computed %08x): corrupt or truncated snapshot", want, got)
	}

	lb := le.Uint32(b[8:])
	ub := le.Uint32(b[12:])
	agg, distinctFlag, kind, pad := b[16], b[17], b[18], b[19]
	dim := le.Uint32(b[20:])
	n := le.Uint64(b[24:])
	k := le.Uint32(b[32:])
	nameLen := le.Uint32(b[36:])
	wcount := le.Uint32(b[40:])
	seccount := le.Uint32(b[44:])
	if distinctFlag > 1 {
		return nil, fmt.Errorf("lof: invalid distinct flag %d", distinctFlag)
	}
	if pad != 0 {
		return nil, fmt.Errorf("lof: nonzero header padding")
	}
	if dim == 0 || dim > 1<<20 {
		return nil, fmt.Errorf("lof: implausible dimensionality %d", dim)
	}
	if n > maxSnapshotPoints {
		return nil, fmt.Errorf("lof: implausible point count %d", n)
	}
	distinct := distinctFlag == 1
	wantSecs := uint32(5)
	if distinct {
		wantSecs = 7
	}
	if seccount != wantSecs {
		return nil, fmt.Errorf("lof: snapshot has %d sections, want %d", seccount, wantSecs)
	}
	secs, err := flatbin.ParseSections(b, v3HeaderSize, int(seccount), payloadEnd)
	if err != nil {
		return nil, fmt.Errorf("lof: snapshot sections: %w", err)
	}
	section := func(id uint32, wantLen uint64, what string) ([]byte, error) {
		s, ok := flatbin.SectionByID(secs, id)
		if !ok {
			return nil, fmt.Errorf("lof: snapshot is missing its %s section", what)
		}
		if s.Len != wantLen {
			return nil, fmt.Errorf("lof: %s section holds %d bytes, want %d", what, s.Len, wantLen)
		}
		return s.Data(b), nil
	}

	nameB, err := section(secMetricName, uint64(nameLen), "metric name")
	if err != nil {
		return nil, err
	}
	weightB, err := section(secWeights, 8*uint64(wcount), "weights")
	if err != nil {
		return nil, err
	}
	coordB, err := section(secCoords, 8*n*uint64(dim), "coordinates")
	if err != nil {
		return nil, err
	}
	rowOffB, err := section(secRowOffsets, 8*(n+1), "row offsets")
	if err != nil {
		return nil, err
	}
	nbrSec, ok := flatbin.SectionByID(secs, secNeighbors)
	if !ok {
		return nil, fmt.Errorf("lof: snapshot is missing its neighbors section")
	}
	if nbrSec.Len%flatbin.NeighborEntrySize != 0 {
		return nil, fmt.Errorf("lof: neighbors section of %d bytes is not a whole number of entries", nbrSec.Len)
	}

	var weights []float64
	if wcount > 0 {
		// Weights feed the Config, which callers may hold beyond the
		// snapshot's lifetime; always copy them out.
		wv, _ := flatbin.Float64s(weightB)
		weights = append([]float64(nil), wv...)
	}
	coords, _ := flatbin.Float64s(coordB)
	pts, err := geom.FromSlice(coords, int(dim))
	if err != nil {
		return nil, fmt.Errorf("lof: model coordinates: %w", err)
	}
	if uint64(pts.Len()) != n {
		return nil, fmt.Errorf("lof: coordinate section holds %d points, header claims %d", pts.Len(), n)
	}
	rowOffs, _ := flatbin.Uint64s(rowOffB)
	flat, _ := flatbin.Neighbors(nbrSec.Data(b))
	var ranks []int32
	var rankOffs []uint64
	if distinct {
		rankOffB, err := section(secRankOffsets, 8*(n+1), "rank offsets")
		if err != nil {
			return nil, err
		}
		rankSec, ok := flatbin.SectionByID(secs, secRanks)
		if !ok {
			return nil, fmt.Errorf("lof: snapshot is missing its ranks section")
		}
		if rankSec.Len%4 != 0 {
			return nil, fmt.Errorf("lof: ranks section of %d bytes is not a whole number of entries", rankSec.Len)
		}
		rankOffs, _ = flatbin.Uint64s(rankOffB)
		ranks, _ = flatbin.Int32s(rankSec.Data(b))
	}
	db, err := matdb.FromFlat(int(k), int(n), flat, rowOffs, ranks, rankOffs, distinct)
	if err != nil {
		return nil, fmt.Errorf("lof: model database: %w", err)
	}
	cfg := Config{
		MinPtsLB:    int(lb),
		MinPtsUB:    int(ub),
		Aggregation: Aggregation(agg),
		Metric:      string(nameB),
		Weights:     weights,
		Index:       IndexKind(kind),
		Distinct:    distinct,
	}
	return assembleModel(cfg, pts, db)
}
