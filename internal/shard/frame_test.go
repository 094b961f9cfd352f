package shard_test

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"lof"
	"lof/internal/shard"
)

// oracleData is the coordinator oracle's training set: three separated
// clusters, two clear outliers, and a block of exact duplicates that makes
// distinct mode meaningful.
func oracleData() [][]float64 {
	var data [][]float64
	emit := func(cx, cy float64, n int, spread float64) {
		for i := 0; i < n; i++ {
			fx := float64(i%7)/7 - 0.5
			fy := float64(i%5)/5 - 0.5
			data = append(data, []float64{cx + spread*fx, cy + spread*fy})
		}
	}
	emit(0, 0, 40, 1.0)
	emit(12, 12, 40, 1.5)
	emit(-10, 8, 40, 0.8)
	data = append(data, []float64{50, -40}, []float64{-35, 60})
	for i := 0; i < 6; i++ {
		data = append(data, []float64{3.25, 3.25})
	}
	return data
}

// coordOracleParts fits the oracle's model at MinPts 3..9 and splits it over
// three shards.
func coordOracleParts(t testing.TB, distinct bool) []*shard.Part {
	t.Helper()
	det, err := lof.New(lof.Config{MinPtsLB: 3, MinPtsUB: 9, Distinct: distinct})
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.Fit(oracleData())
	if err != nil {
		t.Fatal(err)
	}
	m, err := res.Model()
	if err != nil {
		t.Fatal(err)
	}
	pts, db := m.Fitted()
	parts, err := shard.Split(pts, db, shard.Meta{Metric: "euclidean"}, 3, shard.PartitionHash, 5)
	if err != nil {
		t.Fatal(err)
	}
	return parts
}

// sampleFrames returns candidates requests of one, three and five queries
// (cluster cores, the duplicate pile, an outlier, empty space) and the
// answers shard 0 gives them, in plain and distinct mode.
func sampleFrames(t testing.TB) []*shard.Frame {
	t.Helper()
	var out []*shard.Frame
	for _, distinct := range []bool{false, true} {
		p := coordOracleParts(t, distinct)[0]
		for _, queries := range [][]float64{
			{0, 0, 3.25, 3.25, 25, 25},
			{50, -40},
			{12, 12, -10, 8, 0.2, -0.3, 100, 100, 3.25, 3.25},
		} {
			req := &shard.Frame{Kind: shard.KindCandidatesRequest, Distinct: distinct, Version: p.Version(), Dim: 2, Queries: queries}
			reply, err := p.Reply(req)
			if err != nil {
				t.Fatalf("%v: %v", req.Kind, err)
			}
			if err := shard.CheckReply(req, reply); err != nil {
				t.Fatalf("%v: %v", req.Kind, err)
			}
			out = append(out, req, reply)
		}
	}
	return out
}

// TestFrameRoundTrip: every sample frame encodes to Size() bytes and
// decodes back to a frame that encodes to the same bytes.
func TestFrameRoundTrip(t *testing.T) {
	for _, f := range sampleFrames(t) {
		enc := f.Encode()
		if len(enc) != f.Size() {
			t.Fatalf("%v: encoded %d bytes, Size says %d", f.Kind, len(enc), f.Size())
		}
		dec, err := shard.DecodeFrame(enc)
		if err != nil {
			t.Fatalf("%v (distinct=%v): %v", f.Kind, f.Distinct, err)
		}
		if !bytes.Equal(dec.Encode(), enc) {
			t.Fatalf("%v: decoded frame re-encodes differently", f.Kind)
		}
	}
}

// TestFrameRejects: the decoder refuses truncated and malformed frames
// with a description, before trusting any count in them.
func TestFrameRejects(t *testing.T) {
	frames := sampleFrames(t)
	cands := frames[7] // distinct candidates answer: counts and entries
	if cands.Kind != shard.KindCandidates || !cands.Distinct {
		t.Fatalf("sample 7 is a %v frame", cands.Kind)
	}
	good := cands.Encode()
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	le := binary.LittleEndian
	for _, tc := range []struct {
		name, want string
		b          []byte
	}{
		{"empty", "magic", nil},
		{"header", "shorter than", good[:20]},
		{"truncated", "", good[:len(good)-3]},
		{"trailing", "trailing", append(append([]byte(nil), good...), 0)},
		{"json", "magic", []byte(`{"version":1,"queries":[[0,0]]}`)},
		{"magic", "magic", mutate(func(b []byte) []byte { b[0] = 'X'; return b })},
		{"version", "format version 4", mutate(func(b []byte) []byte { le.PutUint32(b[4:], 4); return b })},
		// Frames of the formats before this one — whose kinds included the
		// row rounds (1), and whose distinct answers carried coordinates
		// (2) — are refused rather than misread.
		{"version 1", "format version 1", mutate(func(b []byte) []byte { le.PutUint32(b[4:], 1); return b })},
		{"version 2", "format version 2", mutate(func(b []byte) []byte { le.PutUint32(b[4:], 2); return b })},
		{"kind", "unknown frame kind", mutate(func(b []byte) []byte { b[8] = 99; return b })},
		{"flags", "flags", mutate(func(b []byte) []byte { b[10] = 1; return b })},
		{"sections", "sections", mutate(func(b []byte) []byte { le.PutUint32(b[12:], 3); return b })},
		{"reserved", "reserved", mutate(func(b []byte) []byte { b[36] = 1; return b })},
		{"candidate count", "sum to", mutate(func(b []byte) []byte {
			// Counts is the first section: bump query 0's candidate count.
			off := le.Uint64(b[40:])
			le.PutUint32(b[off:], le.Uint32(b[off:])+1)
			return b
		})},
		{"huge count", "sum to", mutate(func(b []byte) []byte {
			off := le.Uint64(b[40:])
			le.PutUint32(b[off:], 1<<31)
			return b
		})},
	} {
		_, err := shard.DecodeFrame(tc.b)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
	// The byte values of the row-round kinds this format dropped (rows and
	// k-distances requests and answers) are unknown kinds.
	for kind := byte(3); kind <= 6; kind++ {
		b := mutate(func(b []byte) []byte { b[8] = kind; return b })
		if _, err := shard.DecodeFrame(b); err == nil || !strings.Contains(err.Error(), "unknown frame kind") {
			t.Errorf("kind %d: error %v, want an unknown frame kind", kind, err)
		}
	}
}

// FuzzShardFrames feeds arbitrary bytes to the frame decoder. It must
// never panic, never allocate more than a small multiple of the input,
// and any frame it accepts must re-encode to exactly the input. Accepted
// requests are also answered by a plain and a distinct part, which must
// not panic either.
func FuzzShardFrames(f *testing.F) {
	for _, fr := range sampleFrames(f) {
		f.Add(fr.Encode())
	}
	parts := []*shard.Part{coordOracleParts(f, false)[0], coordOracleParts(f, true)[0]}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fr, err := shard.DecodeFrame(data)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 2*uint64(len(data))+8<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		if enc := fr.Encode(); !bytes.Equal(enc, data) {
			t.Fatalf("accepted %v frame re-encodes to %d different bytes (input %d)", fr.Kind, len(enc), len(data))
		}
		if fr.Kind.Reply() == 0 {
			return
		}
		for _, p := range parts {
			if reply, err := p.Reply(fr); err == nil {
				if _, err := shard.DecodeFrame(reply.Encode()); err != nil {
					t.Fatalf("part answered a %v with a malformed frame: %v", fr.Kind, err)
				}
			}
		}
	})
}
