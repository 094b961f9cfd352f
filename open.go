package lof

import (
	"fmt"
	"os"
)

// SnapshotLoadInfo reports how OpenModelFile actually loaded a snapshot, so
// serving code can log whether it is serving out of the page cache or out of
// a private copy.
type SnapshotLoadInfo struct {
	// Version is the snapshot format version that was loaded.
	Version int
	// Mapped reports whether the model's bulk sections (coordinates,
	// neighbor rows) alias a live mmap of the file. When true the mapping is
	// retained for the life of the process; the file must not be truncated
	// or rewritten in place while the model serves (Model.WriteFile
	// replaces snapshots by rename).
	Mapped bool
	// Bytes is the snapshot's size on disk.
	Bytes int64
}

// OpenModelFile restores a model from a snapshot file, memory-mapping it
// where the platform allows so the snapshot serves zero-copy straight out
// of the page cache. Platforms without mmap fall back to reading the file;
// the loaded model is identical either way. The returned info reports
// which path was taken.
func OpenModelFile(path string) (*Model, SnapshotLoadInfo, error) {
	var info SnapshotLoadInfo
	f, err := os.Open(path)
	if err != nil {
		return nil, info, fmt.Errorf("lof: opening snapshot: %w", err)
	}
	defer f.Close()

	data, unmap, mapped, err := mapFile(f)
	if !mapped {
		if err != nil {
			return nil, info, fmt.Errorf("lof: snapshot %s: %w", path, err)
		}
		data, err = os.ReadFile(path)
		if err != nil {
			return nil, info, fmt.Errorf("lof: reading snapshot: %w", err)
		}
	}
	info.Bytes = int64(len(data))
	m, err := LoadModelBytes(data)
	if err != nil {
		if mapped {
			_ = unmap()
		}
		return nil, info, err
	}
	// The model aliases the mapping; keep it for the life of the process.
	// Intentionally no munmap: models have no Close, and serving processes
	// load a handful of snapshots, not thousands.
	info.Version = modelVersion
	info.Mapped = mapped
	return m, info, nil
}
