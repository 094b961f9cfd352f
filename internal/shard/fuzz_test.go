package shard_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"lof/internal/shard"
)

// FuzzDecodePart feeds arbitrary bytes to the part decoder. It must never
// panic, and any part it accepts must re-encode to exactly the input: the
// format has one encoding per part. Each input is also decoded once more
// with its checksum re-sealed, so mutations reach the structural checks
// behind the CRC; an image accepted that way must re-encode to bytes that
// decode and re-encode to themselves.
func FuzzDecodePart(f *testing.F) {
	for _, name := range []string{"part_v3.bin", "part_v3_distinct.bin"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
	}
	f.Add([]byte("LOFP"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := shard.DecodePart(append([]byte(nil), data...)); err == nil {
			enc, err := shard.EncodePart(p)
			if err != nil {
				t.Fatalf("accepted part failed to encode: %v", err)
			}
			if !bytes.Equal(enc, data) {
				t.Fatalf("accepted part re-encodes to %d different bytes (input %d)", len(enc), len(data))
			}
		}
		if len(data) < 8 {
			return
		}
		sealed := append([]byte(nil), data...)
		sum := crc32.Checksum(sealed[:len(sealed)-4], crc32.MakeTable(crc32.Castagnoli))
		binary.LittleEndian.PutUint32(sealed[len(sealed)-4:], sum)
		p, err := shard.DecodePart(sealed)
		if err != nil {
			return
		}
		enc, err := shard.EncodePart(p)
		if err != nil {
			t.Fatalf("accepted part failed to encode: %v", err)
		}
		p2, err := shard.DecodePart(append([]byte(nil), enc...))
		if err != nil {
			t.Fatalf("re-encoded part failed to decode: %v", err)
		}
		enc2, err := shard.EncodePart(p2)
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding is not a fixed point (err %v)", err)
		}
	})
}
