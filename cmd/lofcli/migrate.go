package main

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"lof"
	"lof/internal/flatbin"
)

// runMigrateCmd implements the migrate subcommand: it converts a model
// snapshot in a retired streamed format (1 or 2) to the current format 3,
// which the loaders require.
func runMigrateCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("lofcli migrate", flag.ContinueOnError)
	var (
		in  = fs.String("in", "", "model snapshot in format 1 or 2 (required)")
		out = fs.String("out", "", "path to write the format-3 snapshot to (required)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("-in and -out are required")
	}
	raw, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	m, err := migrate(raw)
	if err != nil {
		return fmt.Errorf("%s: %w", *in, err)
	}
	if err := m.WriteFile(*out); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "migrated %s (format %d, %d points) to %s (format 3)\n",
		*in, binary.LittleEndian.Uint32(raw[4:]), m.Len(), *out)
	return err
}

// migrate converts a retired snapshot image. Formats 1 and 2 store the
// configuration, the coordinates and the materialization database M. M is
// a deterministic product of the fit (paper §7.4), so instead of decoding
// it into a model, migrate refits the stored configuration and coordinates
// and returns the refit only if its database equals the stored one entry
// for entry: K, n, the distinct flag, every neighbor index, the exact bits
// of every distance, and every rank. Any mismatch, a bad format-2
// checksum, or trailing bytes is an error.
func migrate(b []byte) (*lof.Model, error) {
	if len(b) < 8 || string(b[:4]) != "LOFS" {
		return nil, fmt.Errorf("not a model snapshot")
	}
	ver := binary.LittleEndian.Uint32(b[4:])
	payload := b
	switch ver {
	case 1:
	case 2:
		if len(b) < 12 {
			return nil, fmt.Errorf("truncated format-2 snapshot")
		}
		payload = b[:len(b)-4]
		want := binary.LittleEndian.Uint32(b[len(b)-4:])
		if got := crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)); got != want {
			return nil, fmt.Errorf("checksum mismatch (stored %08x, computed %08x): corrupt or truncated snapshot", want, got)
		}
	case 3:
		return nil, fmt.Errorf("snapshot is already format 3; nothing to migrate")
	default:
		return nil, fmt.Errorf("unsupported snapshot format %d", ver)
	}
	br := bytes.NewReader(payload[8:])
	fr := flatbin.NewReader(br)

	cfg := lof.Config{
		MinPtsLB:    int(fr.U32()),
		MinPtsUB:    int(fr.U32()),
		Aggregation: lof.Aggregation(fr.U8()),
	}
	distinct := fr.U8()
	cfg.Index = lof.IndexKind(fr.U8())
	name := make([]byte, fr.U16())
	fr.Full(name)
	cfg.Metric = string(name)
	for i, n := 0, int(fr.U32()); i < n && fr.Err() == nil; i++ {
		cfg.Weights = append(cfg.Weights, fr.F64())
	}
	dim, n := uint64(fr.U32()), fr.U64()
	if err := fr.Context("reading header"); err != nil {
		return nil, err
	}
	if distinct > 1 {
		return nil, fmt.Errorf("invalid distinct flag %d", distinct)
	}
	cfg.Distinct = distinct == 1
	// Every coordinate takes 8 stored bytes, so sizes beyond what the
	// input holds are corrupt; checked before allocating.
	if dim == 0 || n == 0 || n > uint64(br.Len())/8/dim {
		return nil, fmt.Errorf("implausible shape: %d points of %d dimensions in %d bytes", n, dim, br.Len())
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, dim)
		for j := range rows[i] {
			rows[i][j] = fr.F64()
		}
	}
	if err := fr.Context("reading coordinates"); err != nil {
		return nil, err
	}

	det, err := lof.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("stored configuration: %w", err)
	}
	res, err := det.Fit(rows)
	if err != nil {
		return nil, fmt.Errorf("refitting the stored points: %w", err)
	}
	m, err := res.Model()
	if err != nil {
		return nil, err
	}
	if err := compareDB(fr, m); err != nil {
		return nil, err
	}
	if br.Len() != 0 {
		return nil, fmt.Errorf("%d trailing bytes after the database", br.Len())
	}
	return m, nil
}

// compareDB reads the stored materialization database from fr and checks
// it against the refit model's, entry for entry.
func compareDB(fr *flatbin.Reader, m *lof.Model) error {
	_, db := m.Fitted()
	// differ reports a mismatch, unless the stored bytes ran out first.
	differ := func(format string, args ...any) error {
		if err := fr.Context("reading database"); err != nil {
			return err
		}
		return fmt.Errorf("stored database disagrees with the refit: "+format, args...)
	}
	magic := make([]byte, 4)
	fr.Full(magic)
	ver, k, distinct, n := fr.U32(), fr.U32(), fr.U8(), fr.U64()
	switch {
	case string(magic) != "LOFM" || ver != 1:
		return differ("bad database header %q version %d", magic, ver)
	case int(k) != db.K:
		return differ("stored K=%d, refit K=%d", k, db.K)
	case n != uint64(db.Len()):
		return differ("stored %d rows, refit %d", n, db.Len())
	case distinct > 1 || (distinct == 1) != db.IsDistinct():
		return differ("stored distinct flag %d, refit distinct=%v", distinct, db.IsDistinct())
	}
	for i, row := range db.Neighbors {
		if c := fr.U32(); int(c) != len(row) {
			return differ("row %d: stored %d neighbors, refit %d", i, c, len(row))
		}
		for j, nb := range row {
			idx, dist := fr.U32(), fr.F64()
			if int(idx) != nb.Index || math.Float64bits(dist) != math.Float64bits(nb.Dist) {
				return differ("row %d neighbor %d: stored (%d, %v), refit (%d, %v)", i, j, idx, dist, nb.Index, nb.Dist)
			}
		}
		if !db.IsDistinct() {
			continue
		}
		ranks := db.RanksOf(i)
		if c := fr.U32(); int(c) != len(ranks) {
			return differ("row %d: stored %d ranks, refit %d", i, c, len(ranks))
		}
		for j, rk := range ranks {
			if v := fr.U32(); v != uint32(rk) {
				return differ("row %d rank %d: stored %d, refit %d", i, j, v, rk)
			}
		}
	}
	return fr.Context("reading database")
}
