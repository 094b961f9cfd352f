// Package flatbin is the binary-layout toolkit shared by the snapshot
// formats: sectioned file framing, zero-copy reinterpretation of byte
// regions as numeric slices where the platform allows it, and a sticky-error
// little-endian Reader for decoding the retired streamed formats once (see
// lofcli migrate).
//
// Every multi-byte value in every snapshot format is little-endian. The
// sectioned formats (model snapshot v3, shard part v2) store their bulk
// payloads — coordinates, neighbor entries, offset tables — in exactly the
// in-memory layout of the serving structures, at 8-byte-aligned offsets, so
// a loader holding the file bytes (read or mmap'd) can serve straight out of
// them: the cast functions below reinterpret the section bytes in place on
// 64-bit little-endian platforms and fall back to an allocate-and-decode
// copy everywhere else. Callers never need to know which happened, except
// that a zero-copy result aliases the input bytes and inherits their
// lifetime.
package flatbin

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Reader decodes little-endian scalars from an io.Reader with a sticky
// error. After the first failure every accessor returns zero, so decoders
// can read a whole field group and check Err once; Context wraps the sticky
// error with a field name for descriptive load errors.
type Reader struct {
	r   io.Reader
	err error
	buf [8]byte
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Err returns the first read error, if any.
func (r *Reader) Err() error { return r.err }

// Context returns nil if no error occurred, or the sticky error wrapped
// with the given field description.
func (r *Reader) Context(format string, args ...interface{}) error {
	if r.err == nil {
		return nil
	}
	return fmt.Errorf(format+": %w", append(args, r.err)...)
}

func (r *Reader) read(n int) []byte {
	if r.err != nil {
		return r.buf[:n] // zeroed below via prior failure contract
	}
	if _, err := io.ReadFull(r.r, r.buf[:n]); err != nil {
		r.err = err
		for i := range r.buf {
			r.buf[i] = 0
		}
	}
	return r.buf[:n]
}

// U8 reads one byte.
func (r *Reader) U8() uint8 { return r.read(1)[0] }

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 { return binary.LittleEndian.Uint16(r.read(2)) }

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 { return binary.LittleEndian.Uint32(r.read(4)) }

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 { return binary.LittleEndian.Uint64(r.read(8)) }

// I32 reads a little-endian int32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// F64 reads a little-endian float64.
func (r *Reader) F64() float64 { return Float64frombitsOf(r.U64()) }

// Full fills p or sets the sticky error.
func (r *Reader) Full(p []byte) {
	if r.err != nil {
		return
	}
	if _, err := io.ReadFull(r.r, p); err != nil {
		r.err = err
	}
}

// Align8 returns n rounded up to the next multiple of 8. Section offsets in
// the flat snapshot formats are all 8-aligned so the numeric casts above
// apply; the padding bytes between sections are zero.
func Align8(n int) int { return (n + 7) &^ 7 }
