package lof_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lof"
	"lof/internal/flatbin"
	"lof/internal/server"
	"lof/internal/shard"
)

// The snapshot contract battery, the suite every snapshot reader must
// pass. A sectioned snapshot (model format 3, shard part format 2) is a
// fixed header, a section table, 8-aligned sections and a CRC-32C trailer;
// a reader of one must load a valid image unchanged and refuse every
// damaged one with an explicit error — never a panic, never a silently
// different artifact. The battery damages a valid image in each way the
// formats claim to detect: truncation at every section boundary, a bit
// flip in every region, bad magic, a future and a retired version, and
// section-table lies re-sealed under a valid checksum. It runs over the
// three model loaders and the three part readers.

// snapFormat describes the artifact under test.
type snapFormat struct {
	// Image is a valid encoding.
	Image []byte
	// TableOff is the section table's offset (the fixed header size), and
	// Sections the number of table entries Image carries.
	TableOff, Sections int
	// Retired is a format version the readers no longer decode, and
	// RetiredHint a substring their error for it must carry — the way out
	// the operator is told to take.
	Retired     uint32
	RetiredHint string
}

// snapReader is one route into the readers under test. Load returns the
// artifact's re-encoding when the route can produce one (nil otherwise),
// or the route's error.
type snapReader struct {
	Name string
	Load func(t *testing.T, b []byte) ([]byte, error)
}

// reseal recomputes a sectioned image's CRC-32C trailer after a
// deliberate mutation, so the structural checks behind the checksum fire.
func reseal(b []byte) {
	sum := crc32.Checksum(b[:len(b)-4], crc32.MakeTable(crc32.Castagnoli))
	binary.LittleEndian.PutUint32(b[len(b)-4:], sum)
}

// runSnapshotBattery drives every reader through the battery, one subtest
// per case and within it one per reader.
func runSnapshotBattery(t *testing.T, f snapFormat, readers ...snapReader) {
	t.Helper()
	img := f.Image
	secs, err := flatbin.ParseSections(img, f.TableOff, f.Sections, len(img)-4)
	if err != nil {
		t.Fatalf("valid image has a bad section table: %v", err)
	}
	mutate := func(fn func(b []byte)) []byte {
		b := append([]byte(nil), img...)
		fn(b)
		return b
	}
	le := binary.LittleEndian
	entry := func(i int) int { return f.TableOff + i*flatbin.SectionEntrySize }

	// Truncation points: inside the magic and version, the header and table
	// ends, and both ends of every section, and the last byte.
	cuts := []int{0, 3, 7, f.TableOff - 1, f.TableOff, entry(f.Sections), len(img) - 4, len(img) - 1}
	// Bit flips: header, table, the middle of every non-empty section, and
	// the trailer.
	flips := []int{8, f.TableOff - 4, entry(0) + 8, len(img) - 2}
	for _, s := range secs {
		cuts = append(cuts, int(s.Off), int(s.Off+s.Len))
		if s.Len > 0 {
			flips = append(flips, int(s.Off+s.Len/2))
		}
	}
	// The first two non-empty sections, for the overlap case.
	var full []int
	for i, s := range secs {
		if s.Len > 0 {
			full = append(full, i)
		}
	}

	type bad struct {
		img  []byte
		want string // substring the error must carry, "" for any error
	}
	cases := []struct {
		name string
		bad  []bad
	}{
		{"truncated", func() []bad {
			var out []bad
			for _, n := range cuts {
				out = append(out, bad{img: img[:n:n]})
			}
			return out
		}()},
		{"bit flip", func() []bad {
			var out []bad
			for _, pos := range flips {
				out = append(out, bad{img: mutate(func(b []byte) { b[pos] ^= 0x10 })})
			}
			return out
		}()},
		{"bad magic", []bad{{img: mutate(func(b []byte) { b[0] = 'X' }), want: "magic"}}},
		{"future version", []bad{{img: mutate(func(b []byte) { le.PutUint32(b[4:], 99) }), want: "newer than the supported"}}},
		{"retired version", []bad{{img: mutate(func(b []byte) { le.PutUint32(b[4:], f.Retired) }), want: f.RetiredHint}}},
		{"misaligned section", []bad{{img: mutate(func(b []byte) {
			le.PutUint64(b[entry(0)+8:], le.Uint64(b[entry(0)+8:])+1)
			reseal(b)
		}), want: "aligned"}}},
		{"overlapping sections", []bad{{img: mutate(func(b []byte) {
			le.PutUint64(b[entry(full[1])+8:], secs[full[0]].Off)
			reseal(b)
		}), want: "overlaps"}}},
		{"bad section length", []bad{{img: mutate(func(b []byte) {
			le.PutUint64(b[entry(0)+16:], le.Uint64(b[entry(0)+16:])+8)
			reseal(b)
		})}}},
	}

	t.Run("valid", func(t *testing.T) {
		for _, r := range readers {
			t.Run(r.Name, func(t *testing.T) {
				re, err := r.Load(t, append([]byte(nil), img...))
				if err != nil {
					t.Fatalf("valid image refused: %v", err)
				}
				if re != nil && string(re) != string(img) {
					t.Fatalf("valid image re-encodes to %d different bytes (had %d)", len(re), len(img))
				}
			})
		}
	})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, r := range readers {
				t.Run(r.Name, func(t *testing.T) {
					for i, b := range c.bad {
						_, err := r.Load(t, b.img)
						if err == nil {
							t.Fatalf("damaged image %d (%d bytes) loaded without error", i, len(b.img))
						}
						if !strings.Contains(err.Error(), b.want) {
							t.Fatalf("damaged image %d: error %q does not mention %q", i, err, b.want)
						}
					}
				})
			}
		})
	}
}

// TestSnapshotV3Rejection runs the battery over the three model loaders:
// the golden image loads and re-encodes to itself, and every damaged image
// — including a retired streamed version, whose error must point at
// lofcli migrate — is refused.
func TestSnapshotV3Rejection(t *testing.T) {
	img, err := os.ReadFile(filepath.Join("testdata", "snapshots", "model_v3_distinct.bin"))
	if err != nil {
		t.Fatal(err)
	}
	reencode := func(m *lof.Model, err error) ([]byte, error) {
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	runSnapshotBattery(t, snapFormat{
		Image: img, TableOff: 48, Sections: 7,
		Retired: 2, RetiredHint: "lofcli migrate",
	},
		snapReader{Name: "LoadModel", Load: func(t *testing.T, b []byte) ([]byte, error) {
			return reencode(lof.LoadModel(bytes.NewReader(b)))
		}},
		snapReader{Name: "LoadModelBytes", Load: func(t *testing.T, b []byte) ([]byte, error) {
			return reencode(lof.LoadModelBytes(b))
		}},
		snapReader{Name: "OpenModelFile", Load: func(t *testing.T, b []byte) ([]byte, error) {
			path := filepath.Join(t.TempDir(), "model.bin")
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			m, _, err := lof.OpenModelFile(path)
			return reencode(m, err)
		}},
	)
	// Version 1 is retired the same way as version 2.
	v1 := append([]byte(nil), img...)
	binary.LittleEndian.PutUint32(v1[4:], 1)
	if _, err := lof.LoadModelBytes(v1); err == nil || !strings.Contains(err.Error(), "lofcli migrate") {
		t.Fatalf("version-1 snapshot: got %v, want an error naming lofcli migrate", err)
	}
}

// TestPartSnapshotRejection runs the battery over the two part readers and
// the replication endpoint that installs a pushed part. A retired
// version-1 or version-2 part must be asked to re-push; over HTTP every
// refusal is a 400.
func TestPartSnapshotRejection(t *testing.T) {
	img, err := os.ReadFile(filepath.Join("internal", "shard", "testdata", "part_v3_distinct.bin"))
	if err != nil {
		t.Fatal(err)
	}
	reencode := func(p *shard.Part, err error) ([]byte, error) {
		if err != nil {
			return nil, err
		}
		return shard.EncodePart(p)
	}
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()
	runSnapshotBattery(t, snapFormat{
		Image: img, TableOff: 64, Sections: 4,
		Retired: 2, RetiredHint: "re-push",
	},
		snapReader{Name: "DecodePart", Load: func(t *testing.T, b []byte) ([]byte, error) {
			return reencode(shard.DecodePart(b))
		}},
		snapReader{Name: "ReadPart", Load: func(t *testing.T, b []byte) ([]byte, error) {
			return reencode(shard.ReadPart(bytes.NewReader(b)))
		}},
		snapReader{Name: "/v1/shard/snapshot", Load: func(t *testing.T, b []byte) ([]byte, error) {
			resp, err := ts.Client().Post(ts.URL+"/v1/shard/snapshot", "application/octet-stream", bytes.NewReader(b))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var body struct {
				Error string `json:"error"`
			}
			switch resp.StatusCode {
			case http.StatusOK:
				return nil, nil
			case http.StatusBadRequest:
				if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
					t.Fatal(err)
				}
				return nil, errors.New(body.Error)
			}
			t.Fatalf("status %d, want 200 or 400", resp.StatusCode)
			return nil, nil
		}},
	)
	// Version 1 is retired the same way as version 2.
	v1 := append([]byte(nil), img...)
	binary.LittleEndian.PutUint32(v1[4:], 1)
	if _, err := shard.DecodePart(v1); err == nil || !strings.Contains(err.Error(), "re-push") {
		t.Fatalf("version-1 part: got %v, want an error asking to re-push", err)
	}
}
