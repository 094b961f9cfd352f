package lof_test

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"lof"
)

// benchModel fits a model big enough that load time is dominated by the
// snapshot itself rather than index construction (linear index: no build
// cost), the regime the format migration targets.
func benchModel(tb testing.TB) *lof.Model {
	tb.Helper()
	rng := rand.New(rand.NewSource(benchSeed))
	const n, dim = 4000, 8
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, dim)
		for j := range row {
			row[j] = 20*float64(i%5) + rng.NormFloat64()
		}
		rows[i] = row
	}
	det, err := lof.New(lof.Config{MinPtsLB: 8, MinPtsUB: 12, Index: lof.IndexLinear})
	if err != nil {
		tb.Fatal(err)
	}
	res, err := det.Fit(rows)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := res.Model()
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// BenchmarkSnapshotLoad measures restoring one model from the sectioned
// version-3 format, from memory and from an mmap'd file.
func BenchmarkSnapshotLoad(b *testing.B) {
	m := benchModel(b)
	var v3buf bytes.Buffer
	if _, err := m.WriteTo(&v3buf); err != nil {
		b.Fatal(err)
	}
	v3 := v3buf.Bytes()
	dir := b.TempDir()
	v3path := filepath.Join(dir, "model_v3.bin")
	if err := os.WriteFile(v3path, v3, 0o644); err != nil {
		b.Fatal(err)
	}

	b.Run("v3flat", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(v3)))
		for i := 0; i < b.N; i++ {
			if _, err := lof.LoadModelBytes(v3); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("v3mmap", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(v3)))
		for i := 0; i < b.N; i++ {
			if _, _, err := lof.OpenModelFile(v3path); err != nil {
				b.Fatal(err)
			}
		}
	})
}
