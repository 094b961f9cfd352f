package lof_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"lof"
)

// The golden snapshots under testdata/snapshots are version-3 images of a
// fit of the oracle dataset; the oracle JSON carries the Float64bits of the
// scores that fit produced. They were converted from the original streamed
// goldens (now in cmd/lofcli/testdata), whose migration the lofcli tests
// pin to these bytes exactly. The tests here require every loader to
// restore them into models that score bit-identically.

func checkOracleScores(t *testing.T, m *lof.Model, orc prerefactorOracle, want []uint64) {
	t.Helper()
	for i, q := range orc.Queries {
		s, err := m.Score(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if got := math.Float64bits(s); got != want[i] {
			t.Fatalf("query %d: score %v (bits %#x) != oracle bits %#x", i, s, got, want[i])
		}
	}
}

// TestGoldenSnapshotsBitIdentical walks each original streamed golden
// through every loader: the streamed file itself must be refused with an
// error naming lofcli migrate, and the version-3 image it migrates to must
// load (mapped, on linux) and score the oracle bits.
func TestGoldenSnapshotsBitIdentical(t *testing.T) {
	orc := loadOracle(t)
	cases := []struct {
		legacy string // streamed golden, in cmd/lofcli/testdata
		file   string // its version-3 image, in testdata/snapshots
		bits   []uint64
	}{
		{"model_v1.bin", "model_v3.bin", orc.ScoreBits},
		{"model_v2.bin", "model_v3.bin", orc.ScoreBits},
		{"model_v2_distinct.bin", "model_v3_distinct.bin", orc.DistinctScoreBits},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.legacy, func(t *testing.T) {
			legacyPath := filepath.Join("cmd", "lofcli", "testdata", tc.legacy)
			legacy, err := os.ReadFile(legacyPath)
			if err != nil {
				t.Fatalf("reading legacy fixture: %v", err)
			}
			path := filepath.Join("testdata", "snapshots", tc.file)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading fixture: %v", err)
			}
			refused := func(t *testing.T, route string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), "lofcli migrate") {
					t.Fatalf("%s(%s): got %v, want an error naming lofcli migrate", route, tc.legacy, err)
				}
			}
			t.Run("LoadModel", func(t *testing.T) {
				_, err := lof.LoadModel(bytes.NewReader(legacy))
				refused(t, "LoadModel", err)
				m, err := lof.LoadModel(bytes.NewReader(raw))
				if err != nil {
					t.Fatalf("LoadModel: %v", err)
				}
				checkOracleScores(t, m, orc, tc.bits)
			})
			t.Run("LoadModelBytes", func(t *testing.T) {
				_, err := lof.LoadModelBytes(legacy)
				refused(t, "LoadModelBytes", err)
				m, err := lof.LoadModelBytes(raw)
				if err != nil {
					t.Fatalf("LoadModelBytes: %v", err)
				}
				checkOracleScores(t, m, orc, tc.bits)
			})
			t.Run("OpenModelFile", func(t *testing.T) {
				_, _, err := lof.OpenModelFile(legacyPath)
				refused(t, "OpenModelFile", err)
				m, info, err := lof.OpenModelFile(path)
				if err != nil {
					t.Fatalf("OpenModelFile: %v", err)
				}
				if runtime.GOOS == "linux" && !info.Mapped {
					t.Fatalf("golden snapshot not mmap'd on linux: %+v", info)
				}
				if info.Version != 3 || info.Bytes != int64(len(raw)) {
					t.Fatalf("load info %+v, want version 3, %d bytes", info, len(raw))
				}
				checkOracleScores(t, m, orc, tc.bits)
			})
		})
	}
}

func fitOracleModel(t *testing.T, orc prerefactorOracle, distinct bool) *lof.Model {
	t.Helper()
	rows := oracleRows(orc)
	if distinct {
		rows = append([][]float64(nil), rows...)
		for i := 0; i < 20; i++ {
			rows = append(rows, rows[i*7%orc.N])
		}
	}
	det, err := lof.New(lof.Config{MinPtsLB: orc.MinPtsLB, MinPtsUB: orc.MinPtsUB, Distinct: distinct, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.Fit(rows)
	if err != nil {
		t.Fatal(err)
	}
	m, err := res.Model()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSnapshotV3RoundTrip writes and reloads the current format and checks
// bit-identity, deterministic encoding, and the mmap'd load path.
func TestSnapshotV3RoundTrip(t *testing.T) {
	orc := loadOracle(t)
	for _, distinct := range []bool{false, true} {
		m := fitOracleModel(t, orc, distinct)
		want := orc.ScoreBits
		if distinct {
			want = orc.DistinctScoreBits
		}
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		if v := binary.LittleEndian.Uint32(buf.Bytes()[4:]); v != 3 {
			t.Fatalf("WriteTo produced format version %d, want 3", v)
		}
		var buf2 bytes.Buffer
		if _, err := m.WriteTo(&buf2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("encoding is not deterministic")
		}
		golden := "model_v3.bin"
		if distinct {
			golden = "model_v3_distinct.bin"
		}
		if raw, err := os.ReadFile(filepath.Join("testdata", "snapshots", golden)); err != nil || !bytes.Equal(raw, buf.Bytes()) {
			t.Fatalf("fresh fit does not encode to %s byte for byte (read err %v)", golden, err)
		}

		m2, err := lof.LoadModelBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("LoadModelBytes: %v", err)
		}
		checkOracleScores(t, m2, orc, want)

		m3, err := lof.LoadModel(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("LoadModel: %v", err)
		}
		checkOracleScores(t, m3, orc, want)

		path := filepath.Join(t.TempDir(), "model.bin")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		m4, info, err := lof.OpenModelFile(path)
		if err != nil {
			t.Fatalf("OpenModelFile: %v", err)
		}
		if info.Version != 3 || info.Bytes != int64(buf.Len()) {
			t.Fatalf("load info %+v, want version 3, %d bytes", info, buf.Len())
		}
		if runtime.GOOS == "linux" && !info.Mapped {
			t.Fatalf("v3 snapshot not mmap'd on linux: %+v", info)
		}
		checkOracleScores(t, m4, orc, want)
	}
}
