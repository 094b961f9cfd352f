package main

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lof"
)

// legacyGoldens maps each streamed golden snapshot in testdata to the
// committed format-3 golden it must migrate to, byte for byte.
var legacyGoldens = []struct{ legacy, v3 string }{
	{"model_v1.bin", "model_v3.bin"},
	{"model_v2.bin", "model_v3.bin"},
	{"model_v2_distinct.bin", "model_v3_distinct.bin"},
}

func readFile(t testing.TB, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMigrateGoldens(t *testing.T) {
	for _, g := range legacyGoldens {
		t.Run(g.legacy, func(t *testing.T) {
			in := filepath.Join("testdata", g.legacy)
			if _, err := lof.LoadModelBytes(readFile(t, in)); err == nil || !strings.Contains(err.Error(), "lofcli migrate") {
				t.Fatalf("loading a retired snapshot: got %v, want an error naming lofcli migrate", err)
			}
			out := filepath.Join(t.TempDir(), "model.bin")
			var msg bytes.Buffer
			if err := runMigrateCmd([]string{"-in", in, "-out", out}, &msg); err != nil {
				t.Fatalf("migrate: %v", err)
			}
			if !strings.Contains(msg.String(), "to "+out+" (format 3)") {
				t.Fatalf("migrate output %q", msg.String())
			}
			want := readFile(t, filepath.Join("..", "..", "testdata", "snapshots", g.v3))
			if got := readFile(t, out); !bytes.Equal(got, want) {
				t.Fatalf("migrated %s is %d bytes differing from golden %s (%d bytes)", g.legacy, len(got), g.v3, len(want))
			}
		})
	}
}

// firstDistanceOffset walks a streamed snapshot's header to the first
// stored neighbor distance of the database.
func firstDistanceOffset(b []byte) int {
	le := binary.LittleEndian
	off := 19 // magic, version, lb, ub, aggregation, distinct, index
	off += 2 + int(le.Uint16(b[off:]))
	off += 4 + 8*int(le.Uint32(b[off:]))
	dim, n := int(le.Uint32(b[off:])), int(le.Uint64(b[off+4:]))
	off += 12 + 8*n*dim
	return off + 21 + 4 + 4 // database header, row count, neighbor index
}

func resealV2(b []byte) {
	sum := crc32.Checksum(b[:len(b)-4], crc32.MakeTable(crc32.Castagnoli))
	binary.LittleEndian.PutUint32(b[len(b)-4:], sum)
}

func TestMigrateRefusesMismatch(t *testing.T) {
	v2 := readFile(t, filepath.Join("testdata", "model_v2.bin"))
	v1 := readFile(t, filepath.Join("testdata", "model_v1.bin"))
	ulp := append([]byte(nil), v2...)
	at := firstDistanceOffset(ulp)
	d := math.Float64frombits(binary.LittleEndian.Uint64(ulp[at:]))
	binary.LittleEndian.PutUint64(ulp[at:], math.Float64bits(math.Nextafter(d, math.Inf(1))))
	resealV2(ulp)
	flipped := append([]byte(nil), v2...)
	flipped[len(flipped)/2] ^= 0x04

	for _, tc := range []struct {
		name string
		in   []byte
		want string
	}{
		{"distance off by one ulp", ulp, "row 0 neighbor 0"},
		{"bit flip", flipped, "checksum mismatch"},
		{"truncated", v1[:len(v1)-3], "reading database"},
		{"trailing bytes", append(append([]byte(nil), v1...), 0), "trailing bytes"},
		{"already format 3", readFile(t, filepath.Join("..", "..", "testdata", "snapshots", "model_v3.bin")), "already format 3"},
		{"not a snapshot", []byte("LOFP\x02\x00\x00\x00"), "not a model snapshot"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			in, out := filepath.Join(dir, "old.bin"), filepath.Join(dir, "new.bin")
			if err := os.WriteFile(in, tc.in, 0o644); err != nil {
				t.Fatal(err)
			}
			err := runMigrateCmd([]string{"-in", in, "-out", out}, &bytes.Buffer{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error mentioning %q", err, tc.want)
			}
			if entries, _ := os.ReadDir(dir); len(entries) != 1 {
				t.Fatalf("refused migration left files behind: %v", entries)
			}
		})
	}
	if err := runMigrateCmd([]string{"-in", "x"}, &bytes.Buffer{}); err == nil {
		t.Fatal("migrate without -out succeeded")
	}
}

// TestSaveModelKeepsMappedModel saves a model over a snapshot that an
// open model serves by mmap. The open model must keep answering
// bit-identically: -save-model replaces the file, never rewrites it.
func TestSaveModelKeepsMappedModel(t *testing.T) {
	path := writeTestCSV(t, false)
	modelPath := filepath.Join(t.TempDir(), "model.bin")
	o := baseOptions(path)
	o.saveModel = modelPath
	if err := run(&bytes.Buffer{}, o); err != nil {
		t.Fatal(err)
	}
	m, _, err := lof.OpenModelFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	queries := [][]float64{{0, 0}, {1.5, -0.5}, {30, 30}}
	before, err := m.ScoreBatch(queries)
	if err != nil {
		t.Fatal(err)
	}

	other := filepath.Join(t.TempDir(), "other.csv")
	var b strings.Builder
	for i := 0; i < 80; i++ {
		b.WriteString(strings.Repeat("7", 1+i%3) + ".25," + strings.Repeat("3", 1+i%4) + ".5\n")
	}
	if err := os.WriteFile(other, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	o = baseOptions(other)
	o.saveModel = modelPath
	if err := run(&bytes.Buffer{}, o); err != nil {
		t.Fatal(err)
	}

	after, err := m.ScoreBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if math.Float64bits(before[i]) != math.Float64bits(after[i]) {
			t.Fatalf("query %d: open model's score changed from %v to %v when its file was re-saved", i, before[i], after[i])
		}
	}
	fresh, _, err := lof.OpenModelFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Len() != 80 {
		t.Fatalf("re-saved snapshot holds %d points, want the new fit's 80", fresh.Len())
	}
}

// FuzzMigrate feeds arbitrary bytes to the converter. It must never
// panic, and a model it accepts must round-trip through format 3. Each
// format-2 input is also tried with its checksum re-sealed, so mutations
// reach the decoder and the database comparison behind the CRC.
func FuzzMigrate(f *testing.F) {
	for _, g := range legacyGoldens {
		raw := readFile(f, filepath.Join("testdata", g.legacy))
		f.Add(raw)
		f.Add(raw[:len(raw)/3])
	}
	f.Add([]byte("LOFS\x01\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Every accepted header costs a refit with K = MinPtsUB; keep K
		// small so one exec stays cheap (the goldens use MinPtsUB 12).
		if len(data) >= 16 && binary.LittleEndian.Uint32(data[12:]) > 64 {
			return
		}
		inputs := [][]byte{data}
		if len(data) >= 12 && binary.LittleEndian.Uint32(data[4:]) == 2 {
			sealed := append([]byte(nil), data...)
			resealV2(sealed)
			inputs = append(inputs, sealed)
		}
		for _, in := range inputs {
			m, err := migrate(in)
			if err != nil {
				continue
			}
			var v3 bytes.Buffer
			if _, err := m.WriteTo(&v3); err != nil {
				t.Fatalf("migrated model failed to encode: %v", err)
			}
			back, err := lof.LoadModelBytes(v3.Bytes())
			if err != nil {
				t.Fatalf("migrated model failed to load: %v", err)
			}
			var again bytes.Buffer
			if _, err := back.WriteTo(&again); err != nil || !bytes.Equal(again.Bytes(), v3.Bytes()) {
				t.Fatalf("migrated model does not round-trip through format 3 (err %v)", err)
			}
		}
	})
}
