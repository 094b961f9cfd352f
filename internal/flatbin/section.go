package flatbin

import (
	"encoding/binary"
	"fmt"
)

// Section is one entry of a sectioned snapshot's table: a typed, 8-aligned
// byte range within the file. The table itself is a count of fixed
// SectionEntrySize records immediately after the format header:
//
//	id u32 | reserved u32 (zero) | off u64 | len u64
//
// Offsets are absolute file offsets. Sections appear in the table in
// ascending offset order, do not overlap, and leave only zero padding
// between one section's end and the next 8-aligned offset.
type Section struct {
	ID  uint32
	Off uint64
	Len uint64
}

// SectionEntrySize is the wire size of one section-table entry.
const SectionEntrySize = 24

// AppendSection appends s's table entry to b.
func AppendSection(b []byte, s Section) []byte {
	le := binary.LittleEndian
	b = le.AppendUint32(b, s.ID)
	b = le.AppendUint32(b, 0)
	b = le.AppendUint64(b, s.Off)
	return le.AppendUint64(b, s.Len)
}

// ParseSections decodes and validates a section table. file is the whole
// snapshot, tableOff the table's offset, count the header's section count,
// and payloadEnd the first byte past the last legal section byte (the CRC
// trailer offset). It checks each entry lies in [end of table, payloadEnd],
// starts 8-aligned, and follows the previous section without overlap.
func ParseSections(file []byte, tableOff, count, payloadEnd int) ([]Section, error) {
	if count < 0 || count > 64 {
		return nil, fmt.Errorf("flatbin: implausible section count %d", count)
	}
	tableEnd := tableOff + count*SectionEntrySize
	if tableEnd > payloadEnd {
		return nil, fmt.Errorf("flatbin: section table (%d entries) exceeds payload", count)
	}
	out := make([]Section, count)
	prevEnd := uint64(tableEnd)
	for i := 0; i < count; i++ {
		e := file[tableOff+i*SectionEntrySize:]
		s := Section{
			ID:  uint32(e[0]) | uint32(e[1])<<8 | uint32(e[2])<<16 | uint32(e[3])<<24,
			Off: leU64(e[8:]),
			Len: leU64(e[16:]),
		}
		if s.Off%8 != 0 {
			return nil, fmt.Errorf("flatbin: section %d (id %d) at misaligned offset %d", i, s.ID, s.Off)
		}
		if s.Off < prevEnd {
			return nil, fmt.Errorf("flatbin: section %d (id %d) at offset %d overlaps previous end %d", i, s.ID, s.Off, prevEnd)
		}
		end := s.Off + s.Len
		if end < s.Off || end > uint64(payloadEnd) {
			return nil, fmt.Errorf("flatbin: section %d (id %d) spans [%d, %d) beyond payload end %d", i, s.ID, s.Off, end, payloadEnd)
		}
		out[i] = s
		prevEnd = end
	}
	return out, nil
}

// SectionByID returns the first section with the given id, or false.
func SectionByID(ss []Section, id uint32) (Section, bool) {
	for _, s := range ss {
		if s.ID == id {
			return s, true
		}
	}
	return Section{}, false
}

// Data returns the byte range of s within file. ParseSections already
// bounds-checked it.
func (s Section) Data(file []byte) []byte {
	return file[s.Off : s.Off+s.Len : s.Off+s.Len]
}

func leU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
