package motif

import (
	"math"
	"sync"
	"sync/atomic"

	"motifstream/internal/graph"
	"motifstream/internal/racetest"
)

// This file is the hand-over's memory: the chunks that candidate and Via
// windows are issued from, the Lease a hand-over's windows hold of them, and
// the Recycler that issues a chunk again once all its windows are released.

// chunk is one array the hand-over issues windows from, with the references
// to it still held: one for each issued window not yet released, and one
// while a scratch issues from its tail. Whoever drops the last one returns
// the chunk to home. A chunk that someone never releases is left to the
// collector, as every chunk was before recycling: a forgotten release costs
// an allocation, never a window rewritten under its holder.
type chunk[T any] struct {
	refs atomic.Int32
	home *freeList[T]
	buf  []T
}

// release drops one reference to c; nil is no chunk.
func (c *chunk[T]) release() {
	if c != nil && c.refs.Add(-1) == 0 {
		c.home.put(c)
	}
}

// freeList holds a recycler's chunks of one kind that nothing references.
type freeList[T any] struct {
	mu     sync.Mutex
	chunks []*chunk[T]
	closed bool
	// poison is what a returned chunk holds while it waits under the race
	// detector.
	poison T
}

// put takes back a chunk no one references. Under the race detector it is
// first filled with poison: a holder that reads a window after releasing it
// reads values no detection produces, and races the fill, so the
// differential suites that run under the detector fail on an early release.
func (f *freeList[T]) put(c *chunk[T]) {
	if racetest.Enabled {
		for i := range c.buf {
			c.buf[i] = f.poison
		}
	}
	f.mu.Lock()
	if !f.closed {
		f.chunks = append(f.chunks, c)
	}
	f.mu.Unlock()
}

// get returns a blank chunk of n elements holding one reference, the
// caller's: a free one if there is one, else a new one.
func (f *freeList[T]) get(n int) *chunk[T] {
	f.mu.Lock()
	var c *chunk[T]
	if k := len(f.chunks); k > 0 {
		c, f.chunks[k-1] = f.chunks[k-1], nil
		f.chunks = f.chunks[:k-1]
	}
	f.mu.Unlock()
	if c == nil {
		c = &chunk[T]{home: f, buf: make([]T, n)}
	} else {
		clear(c.buf)
	}
	c.refs.Store(1)
	return c
}

// close drops the free chunks and every chunk returned later.
func (f *freeList[T]) close() {
	f.mu.Lock()
	f.chunks, f.closed = nil, true
	f.mu.Unlock()
}

// Recycler keeps the candidate and Via chunks of the scratches bound to it
// (NewScratch) whose windows are all released, and issues them again before
// a scratch allocates. It holds no more chunks than were in flight at once.
// Safe for concurrent use: scratches take chunks on their workers while
// holders release windows on theirs.
type Recycler struct {
	cands freeList[Candidate]
	vias  freeList[graph.VertexID]
}

// released is the poison of a returned chunk: no vertex has this ID.
const released = graph.VertexID(math.MaxUint64)

// NewRecycler returns an empty recycler.
func NewRecycler() *Recycler {
	r := &Recycler{}
	r.cands.poison = Candidate{User: released, Item: released, Program: "released", Score: math.NaN()}
	r.vias.poison = released
	return r
}

// Close drops the free chunks and lets every chunk released afterwards go to
// the collector, so that a recycler whose scratches are gone holds no
// memory. Windows still held stay valid.
func (r *Recycler) Close() {
	r.cands.close()
	r.vias.close()
}

// NewScratch returns a scratch whose chunks come from r and go back to it.
// A scratch from GetScratch, or a zero one, allocates every chunk and
// recycles none.
func NewScratch(r *Recycler) *Scratch { return &Scratch{rec: r} }

// Lease is what one hand-over's windows hold of the chunks they were issued
// from (Scratch.HandOver). Releasing it says their holder reads them no
// more; each lease is released at most once, by whoever finishes with the
// candidates, and never by a holder that keeps reading them. The zero Lease,
// and the lease of a hand-over from a scratch with no recycler, release
// nothing.
type Lease struct {
	cands *chunk[Candidate]
	vias  *chunk[graph.VertexID]
}

// Release gives the windows back to their chunks.
func (l Lease) Release() {
	l.cands.release()
	l.vias.release()
}

// issue bump-allocates a window of n elements off the front of *tail, the
// unissued rest of chunk *cur, with no spare capacity, and returns the chunk
// the window holds a reference to. When the tail is too short the scratch
// moves to a new chunk of size elements, dropping its reference to the old
// one, from free when the scratch has a recycler (no chunk is tracked, and
// the window holds nothing, when it has none). A window longer than size gets
// an array of its own that no one recycles, and the tail stays. Windows
// issued before are never touched again.
func issue[T any](tail *[]T, cur **chunk[T], free *freeList[T], n, size int) ([]T, *chunk[T]) {
	switch {
	case n == 0:
		return nil, nil
	case n > size:
		return make([]T, n), nil
	case len(*tail) < n && free == nil:
		*tail = make([]T, size)
	case len(*tail) < n:
		(*cur).release()
		*cur = free.get(size)
		*tail = (*cur).buf
	}
	w := (*tail)[:n:n]
	*tail = (*tail)[n:]
	if *cur == nil {
		return w, nil
	}
	(*cur).refs.Add(1)
	return w, *cur
}
