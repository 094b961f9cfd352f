package index

import (
	"sync/atomic"

	"lof/internal/geom"
)

// Counting wraps an Index and counts queries issued through it. The fit
// pipeline installs it when tracing is enabled so run stats can report how
// many kNN and range probes the materialization actually cost — the
// quantity the paper's Section 7 index comparison is about. Counters are
// atomic, keeping the wrapped index safe for concurrent queries.
//
// Counting also tracks how many cursors were created and how many queries
// were served by a reused cursor (the allocation-free hot path).
type Counting struct {
	Index
	knn, rng atomic.Int64

	cursors     atomic.Int64 // cursors handed out via NewCursor
	cursorReuse atomic.Int64 // queries served by a cursor after its first
}

// NewCounting wraps ix; a nil ix returns nil.
func NewCounting(ix Index) *Counting {
	if ix == nil {
		return nil
	}
	return &Counting{Index: ix}
}

// NewCursor returns a counting cursor over the wrapped index's cursor, so
// consumers that thread cursors keep the wrapper's query accounting.
func (c *Counting) NewCursor() Cursor {
	c.cursors.Add(1)
	return &countingCursor{c: c, cur: c.Index.NewCursor()}
}

// countingCursor delegates to the wrapped index's cursor and attributes
// queries to the Counting wrapper's counters.
type countingCursor struct {
	c    *Counting
	cur  Cursor
	used bool
}

func (cc *countingCursor) Index() Index { return cc.c }

func (cc *countingCursor) count(queries *atomic.Int64) {
	queries.Add(1)
	if cc.used {
		cc.c.cursorReuse.Add(1)
	}
	cc.used = true
}

func (cc *countingCursor) KNNInto(dst []Neighbor, q geom.Point, k int, exclude int) []Neighbor {
	cc.count(&cc.c.knn)
	return cc.cur.KNNInto(dst, q, k, exclude)
}

func (cc *countingCursor) RangeInto(dst []Neighbor, q geom.Point, r float64, exclude int) []Neighbor {
	cc.count(&cc.c.rng)
	return cc.cur.RangeInto(dst, q, r, exclude)
}

// KNNQueries returns the number of kNN queries observed.
func (c *Counting) KNNQueries() int64 { return c.knn.Load() }

// RangeQueries returns the number of range queries observed.
func (c *Counting) RangeQueries() int64 { return c.rng.Load() }

// Cursors returns how many cursors were created through the wrapper.
func (c *Counting) Cursors() int64 { return c.cursors.Load() }

// CursorReuse returns how many queries were served by a reused cursor —
// every query after the first on each cursor, the allocation-free path.
func (c *Counting) CursorReuse() int64 { return c.cursorReuse.Load() }

// Unwrap returns the underlying index.
func (c *Counting) Unwrap() Index { return c.Index }
