package shard_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lof"
	"lof/internal/dataset"
	"lof/internal/shard"
)

// The golden parts under testdata are images of shard 1 of a split of the
// oracle fit the root package's testdata/oracle_prerefactor.json captures.
// The version-2 images carried each owned point's materialized row, ranks
// and halo besides its id and coordinates; the version-3 ones hold their
// header, ids and coordinates, re-encoded from the version-2 images. A
// version-2 image must be refused with a request to re-push, a fresh split
// with today's code must encode to the version-3 image byte for byte, and
// both readers must restore that image into parts that re-encode to the
// same bytes: encoding is deterministic, so byte equality proves the
// entire state — ids, coordinates, metadata — survives exactly.

func oracleParts(t *testing.T, distinct bool) []*shard.Part {
	t.Helper()
	d := dataset.RandomClusters(1234, 400, 3, 5)
	rows := make([][]float64, d.Points.Len())
	for i := range rows {
		rows[i] = d.Points.At(i)
	}
	parter := shard.PartitionHash
	if distinct {
		for i := 0; i < 20; i++ {
			rows = append(rows, rows[i*7%400])
		}
		parter = shard.PartitionRange
	}
	det, err := lof.New(lof.Config{MinPtsLB: 8, MinPtsUB: 12, Distinct: distinct, Workers: 1})
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
	pts, db := m.Fitted()
	parts, err := shard.Split(pts, db, shard.Meta{Metric: "euclidean"}, 3, parter, 7)
	if err != nil {
		t.Fatal(err)
	}
	return parts
}

func TestGoldenPartBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		file, v3 string
		distinct bool
	}{
		{"part_v2.bin", "part_v3.bin", false},
		{"part_v2_distinct.bin", "part_v3_distinct.bin", true},
	} {
		tc := tc
		t.Run(tc.file, func(t *testing.T) {
			v2, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatalf("reading fixture: %v", err)
			}
			if _, err := shard.DecodePart(v2); err == nil || !strings.Contains(err.Error(), "re-push") {
				t.Fatalf("DecodePart(%s): %v, want a refusal asking to re-push", tc.file, err)
			}
			if _, err := shard.ReadPart(bytes.NewReader(v2)); err == nil || !strings.Contains(err.Error(), "re-push") {
				t.Fatalf("ReadPart(%s): %v, want a refusal asking to re-push", tc.file, err)
			}
			raw, err := os.ReadFile(filepath.Join("testdata", tc.v3))
			if err != nil {
				t.Fatalf("reading fixture: %v", err)
			}
			fresh, err := shard.EncodePart(oracleParts(t, tc.distinct)[1])
			if err != nil {
				t.Fatalf("EncodePart(fresh): %v", err)
			}
			if !bytes.Equal(raw, fresh) {
				t.Fatalf("fresh split encodes to %d bytes differing from the golden %d", len(fresh), len(raw))
			}
			decoded, err := shard.DecodePart(raw)
			if err != nil {
				t.Fatalf("DecodePart: %v", err)
			}
			read, err := shard.ReadPart(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("ReadPart: %v", err)
			}
			for _, p := range []*shard.Part{decoded, read} {
				if p.Meta().Distinct != tc.distinct {
					t.Fatalf("restored part distinct=%v, want %v", p.Meta().Distinct, tc.distinct)
				}
				enc, err := shard.EncodePart(p)
				if err != nil {
					t.Fatalf("EncodePart(restored): %v", err)
				}
				if !bytes.Equal(enc, raw) {
					t.Fatal("restored golden part re-encodes to different bytes")
				}
			}
		})
	}
}
