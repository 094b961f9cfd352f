package flatbin

import (
	"encoding/binary"
	"math"
	"unsafe"

	"lof/internal/index"
)

// Float64bitsOf and Float64frombitsOf are math.Float64bits/Frombits; they
// live here so the encoding layer has no other math dependency and the
// "every float is its exact bit pattern" contract is stated in one place.
func Float64bitsOf(v float64) uint64     { return math.Float64bits(v) }
func Float64frombitsOf(b uint64) float64 { return math.Float64frombits(b) }

// hostLittleEndian reports whether this platform stores integers
// little-endian — the precondition for reinterpreting file bytes (always
// little-endian) as numeric slices.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// neighborCastOK reports whether index.Neighbor's in-memory layout matches
// the 16-byte {u64 index, f64 dist} wire entry: 64-bit int at offset 0,
// float64 at offset 8, no padding, little-endian host. On any platform
// where this fails the loaders transparently fall back to copying.
var neighborCastOK = func() bool {
	var nb index.Neighbor
	return hostLittleEndian &&
		unsafe.Sizeof(nb) == 16 &&
		unsafe.Sizeof(nb.Index) == 8 &&
		unsafe.Offsetof(nb.Index) == 0 &&
		unsafe.Offsetof(nb.Dist) == 8
}()

// NeighborEntrySize is the wire size of one neighbor entry: u64 index
// followed by f64 distance bits.
const NeighborEntrySize = 16

// aligned reports whether b's first byte sits on an n-byte boundary. Empty
// slices are trivially aligned.
func aligned(b []byte, n uintptr) bool {
	if len(b) == 0 {
		return true
	}
	return uintptr(unsafe.Pointer(&b[0]))%n == 0
}

// Float64s reinterprets b (little-endian float64 bit patterns) as a
// []float64. On a little-endian host with 8-aligned input the result
// aliases b — zero copy, reported by the second return — otherwise it is a
// freshly decoded copy. len(b) must be a multiple of 8.
func Float64s(b []byte) ([]float64, bool) {
	n := len(b) / 8
	if n == 0 {
		return nil, false
	}
	if hostLittleEndian && aligned(b, 8) {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n), true
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, false
}

// Uint64s reinterprets b as a []uint64; same contract as Float64s.
func Uint64s(b []byte) ([]uint64, bool) {
	n := len(b) / 8
	if n == 0 {
		return nil, false
	}
	if hostLittleEndian && aligned(b, 8) {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n), true
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out, false
}

// Uint32s reinterprets b as a []uint32 (4-byte alignment suffices); same
// contract as Float64s.
func Uint32s(b []byte) ([]uint32, bool) {
	n := len(b) / 4
	if n == 0 {
		return nil, false
	}
	if hostLittleEndian && aligned(b, 4) {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n), true
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out, false
}

// Int32s reinterprets b as a []int32; same contract as Uint32s.
func Int32s(b []byte) ([]int32, bool) {
	n := len(b) / 4
	if n == 0 {
		return nil, false
	}
	if hostLittleEndian && aligned(b, 4) {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n), true
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out, false
}

// Neighbors reinterprets b (NeighborEntrySize-byte {u64 index, f64 dist}
// entries) as a []index.Neighbor. Zero-copy when the in-memory struct layout
// matches the wire entry (64-bit little-endian platforms) and b is
// 8-aligned; a decoded copy otherwise. len(b) must be a multiple of
// NeighborEntrySize.
func Neighbors(b []byte) ([]index.Neighbor, bool) {
	n := len(b) / NeighborEntrySize
	if n == 0 {
		return nil, false
	}
	if neighborCastOK && aligned(b, 8) {
		return unsafe.Slice((*index.Neighbor)(unsafe.Pointer(&b[0])), n), true
	}
	out := make([]index.Neighbor, n)
	for i := range out {
		off := i * NeighborEntrySize
		out[i] = index.Neighbor{
			Index: int(int64(binary.LittleEndian.Uint64(b[off:]))),
			Dist:  math.Float64frombits(binary.LittleEndian.Uint64(b[off+8:])),
		}
	}
	return out, false
}
