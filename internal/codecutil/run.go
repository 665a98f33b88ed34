package codecutil

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
)

// Entry is one key of a Run and the value it carries.
type Entry[K cmp.Ordered, V any] struct {
	Key K
	Val V
}

// Run is a sorted run: entries in strictly ascending key order. That is what
// every checkpoint section is on disk — encoders write keys ascending so
// equal states serialize identically — and holding the decoded form the
// same way makes every operator over segments a merge instead of a hash
// probe. A run being captured is appended to in whatever order its distinct
// keys arrive and sealed before its first encode or merge.
type Run[K cmp.Ordered, V any] []Entry[K, V]

// Seal sorts a captured run in place; decoded and merged runs are already
// ascending and cost one pass of comparisons.
func (r Run[K, V]) Seal() {
	byKey := func(a, b Entry[K, V]) int { return cmp.Compare(a.Key, b.Key) }
	if !slices.IsSortedFunc(r, byKey) {
		slices.SortFunc(r, byKey)
	}
}

// AppendAscending appends a decoded entry to r, failing c unless its key is
// above the last one: a repeated key is visible without a lookup, and a
// file that decodes is a run MergeRuns can take.
func AppendAscending[K cmp.Ordered, V any](c *Cursor, context string, r Run[K, V], key K, val V) Run[K, V] {
	if n := len(r); n > 0 && key <= r[n-1].Key {
		c.Fail(context, fmt.Errorf("%v after %v: not ascending", key, r[n-1].Key))
	}
	return append(r, Entry[K, V]{key, val})
}

// ReadRun reads a section AppendRun wrote: the entry count, bounded by the
// bytes left at minBytes an entry, then per entry the key and the value read
// takes, failing c unless the keys ascend (AppendAscending). The contexts name
// the count and the key in error messages.
func ReadRun[K ~uint64, V any](c *Cursor, count, key string, minBytes int, read func(*Cursor) V) Run[K, V] {
	n := c.Count(count, minBytes)
	r := make(Run[K, V], 0, n)
	for i := 0; i < n && c.Err == nil; i++ {
		k := K(c.U(key))
		r = AppendAscending(c, key, r, k, read(c))
	}
	return r
}

// AppendRun appends a sealed run as every checkpoint section lays one out:
// the entry count, then per entry, ascending, the key as a uvarint and
// whatever put appends for the value.
func AppendRun[K ~uint64, V any](b []byte, r Run[K, V], put func([]byte, V) []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(r)))
	for _, e := range r {
		b = put(binary.AppendUvarint(b, uint64(e.Key)), e.Val)
	}
	return b
}

// SpanOf is ReadRun's reader for a run of spans: it runs check, which reads
// one value's encoding — validating it and keeping nothing — and returns the
// bytes check read, a window of the section, so the value is carried without
// being decoded.
func SpanOf(check func(*Cursor)) func(*Cursor) []byte {
	return func(c *Cursor) []byte {
		pos := c.pos
		check(c)
		return c.b[pos:c.pos:c.pos]
	}
}

// AppendSpan is AppendRun's put for a run of spans: the value's encoding as
// it was read.
func AppendSpan(b, span []byte) []byte { return append(b, span...) }

// MergeRuns is the newer-wins merge of sealed runs given in cut order,
// oldest first — the one rule every composition of checkpoint segments
// follows: a key takes the value of the newest run holding it (a segment
// carries a full replacement per key, never an edit). Entries whose value
// dead reports are tombstones and are left out — a fold onto a base passes
// it, because nothing older is left for them to delete; a merge of deltas
// passes nil and keeps them. Every run is walked once and the output is
// allocated once; the head scan is linear in the number of runs, which is
// a checkpoint chain's length — a handful.
func MergeRuns[K cmp.Ordered, V any](dead func(V) bool, runs ...Run[K, V]) Run[K, V] {
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	out := make(Run[K, V], 0, total)
	pos := make([]int, len(runs))
	for {
		// The lowest key still unread, from the newest run holding it.
		best := -1
		for i := len(runs) - 1; i >= 0; i-- {
			if pos[i] < len(runs[i]) && (best < 0 || runs[i][pos[i]].Key < runs[best][pos[best]].Key) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		e := runs[best][pos[best]]
		for i, r := range runs {
			if pos[i] < len(r) && r[pos[i]].Key == e.Key {
				pos[i]++
			}
		}
		if dead == nil || !dead(e.Val) {
			out = append(out, e)
		}
	}
}
