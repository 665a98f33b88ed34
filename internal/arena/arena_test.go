package arena

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"motifstream/internal/racetest"
)

// The two policies in use: D's (dynstore) and the candidate log's
// (partition). The harness runs both.
var policies = []struct {
	name string
	p    Policy
	// free: a record whose list empties gives up its block, and a
	// compaction skips it — D's key table — rather than keeping an empty
	// block that compactions place like any other (the log's records).
	free bool
}{
	{"store", Policy{Garbage: 8, Grow: 4, Room: 4, NewRoom: 4, Shrink: 4}, true},
	{"log", Policy{Room: 16, NewRoom: 8}, false},
}

// harness drives an arena of uint64s, every element distinct, against a
// map-of-slices reference, one list per record.
type harness struct {
	t     testing.TB
	p     Policy
	free  bool
	a     Arena[uint64]
	recs  []Block
	ref   map[int][]uint64
	order Order
	next  uint64
	// bound is what garbage plus free room may reach: the room the last
	// compaction, growth or restore left, plus what Drop made garbage since.
	bound int
}

func newHarness(t testing.TB, p Policy, free bool) *harness {
	return &harness{t: t, p: p, free: free, ref: map[int][]uint64{}}
}

func (h *harness) blocks() Blocks {
	return Blocks{N: len(h.recs), At: func(i int) *Block {
		if h.free && h.recs[i].N == 0 {
			return nil
		}
		return &h.recs[i]
	}}
}

func (h *harness) slack() int { return h.a.garbage + cap(h.a.buf) - len(h.a.buf) }

func (h *harness) live() (n int) {
	for _, l := range h.ref {
		n += len(l)
	}
	return n
}

// compacted checks a compaction that left room for extra by p's numbers and
// the lists packed at the array's start, and restarts the bound.
func (h *harness) compacted(before []uint64, extra int) {
	h.t.Helper()
	live := h.live()
	need := live + live/h.p.Room + extra
	if len(h.a.buf) != live || h.a.garbage != 0 {
		h.t.Fatalf("compaction left length %d and garbage %d, want %d and 0", len(h.a.buf), h.a.garbage, live)
	}
	if unsafe.SliceData(h.a.buf) != unsafe.SliceData(before) || cap(before) == 0 {
		if want := live + live/h.p.NewRoom + extra; cap(h.a.buf) != want {
			h.t.Fatalf("a new array of %d for %d live and %d extra, want %d", cap(h.a.buf), live, extra, want)
		}
		if need <= cap(before) && (h.p.Shrink == 0 || h.p.Shrink*need >= cap(before)) && cap(before) > 0 {
			h.t.Fatalf("replaced an array of %d that had the room for %d", cap(before), need)
		}
	} else if need > cap(h.a.buf) || h.p.Shrink > 0 && h.p.Shrink*need < cap(h.a.buf) {
		h.t.Fatalf("kept an array of %d for a need of %d", cap(h.a.buf), need)
	}
	h.bound = h.slack()
}

// push appends k elements to record r's list, moving its block when full.
func (h *harness) push(r, k int) {
	h.t.Helper()
	for r >= len(h.recs) {
		h.recs = append(h.recs, Block{})
	}
	b, fresh := &h.recs[r], h.recs[r].N == 0
	if int(b.N)+k > int(b.Cap()) {
		size := max(int(b.N)+k, int(b.Cap())*3/2)
		before, n, g := h.a.buf, len(h.a.buf), h.a.garbage
		if n+size <= cap(before) {
			h.a.Move(b, size, h.p, h.blocks(), &h.order)
		} else if h.p.Garbage == 0 || h.p.Garbage*g >= n {
			old := int(b.N) // the compaction leaves the block exactly its list
			h.a.Move(b, size, h.p, h.blocks(), &h.order)
			// The compaction checks as a Compact(size) would, the move after it.
			h.a.buf, h.a.garbage = h.a.buf[:len(h.a.buf)-size], h.a.garbage-old
			h.compacted(before, size)
			h.a.buf, h.a.garbage = h.a.buf[:len(h.a.buf)+size], h.a.garbage+old
			h.bound = h.slack()
		} else {
			h.a.Move(b, size, h.p, h.blocks(), &h.order)
			if want := n + n/h.p.Grow + size; cap(h.a.buf) != want || len(h.a.buf) != n+size {
				h.t.Fatalf("grew %d to length %d, capacity %d; want %d, %d", n, len(h.a.buf), cap(h.a.buf), n+size, want)
			}
			h.bound = h.slack()
		}
		if b.Cap() != uint32(size) || b.Off+uint32(size) != uint32(len(h.a.buf)) {
			h.t.Fatalf("moved block %+v is not %d at the array's end (%d)", *b, size, len(h.a.buf))
		}
	}
	list := h.a.Window(*b)
	for i := 0; i < k; i++ {
		h.next++
		list = append(list, h.next)
		h.ref[r] = append(h.ref[r], h.next)
	}
	b.N = uint32(len(list))
	if fresh {
		h.mark(r)
	}
}

// mark sets Mark on an odd record's block as its list starts, as D marks a
// dirty target: the arena must keep it through every move and compaction.
func (h *harness) mark(r int) {
	if r%2 == 1 {
		h.recs[r].Size |= Mark
	}
}

// drop makes the first n elements of record r's list garbage.
func (h *harness) drop(r, n int) {
	b := &h.recs[r]
	h.a.Drop(b, n)
	h.ref[r] = h.ref[r][n:]
	h.bound += n
}

// slide removes the first n elements of record r's list in place, the block
// kept: the candidate log's eviction.
func (h *harness) slide(r, n int) {
	b := &h.recs[r]
	list := h.a.Window(*b)
	b.N = uint32(copy(list, list[n:]))
	h.ref[r] = h.ref[r][n:]
	if b.N == 0 {
		h.clear(r)
	}
}

// clear empties record r, which under free gives its block up: D's sweep.
func (h *harness) clear(r int) {
	h.recs[r].N = 0
	if h.free {
		h.recs[r] = Block{}
	}
	h.ref[r] = nil
}

// restore rebuilds the arena from the reference, room more than the lists,
// through Make, Append and Fit.
func (h *harness) restore(room int) {
	h.a = Make[uint64](h.live() + room)
	for r := range h.recs {
		h.recs[r] = Block{}
		if len(h.ref[r]) > 0 {
			h.recs[r] = h.a.Append(h.ref[r])
			h.mark(r)
		}
	}
	h.a.Fit(h.p)
	if n := len(h.a.buf); cap(h.a.buf) > n+n/h.p.Room {
		h.t.Fatalf("Fit left %d of capacity for %d", cap(h.a.buf), n)
	}
	h.bound = h.slack()
}

// check holds every record's list to the reference and the slack to its
// bound.
func (h *harness) check(op string) {
	h.t.Helper()
	for r, b := range h.recs {
		if got := h.a.Window(b); !slices.Equal(got, h.ref[r]) {
			h.t.Fatalf("after %s: record %d holds %v, want %v", op, r, got, h.ref[r])
		}
		if h.free && b.N == 0 && b != (Block{}) {
			h.t.Fatalf("after %s: free record %d is %+v", op, r, b)
		}
		if b.N > 0 && b.Size&Mark != 0 != (r%2 == 1) {
			h.t.Fatalf("after %s: record %d's block %+v, its Mark lost or gained", op, r, b)
		}
	}
	if s := h.slack(); s > h.bound {
		h.t.Fatalf("after %s: garbage %d plus free room %d exceed the bound %d", op, h.a.garbage, cap(h.a.buf)-len(h.a.buf), h.bound)
	}
}

// run interprets ops, a byte picking the operation and the bytes after it its
// arguments:
//
//	0, 1, 2  push: record, count (1–4)
//	3        drop: record, count (never all: a drop that empties is a clear)
//	4        slide: record, count
//	5        compact: extra (0–7)
//	6        clear: record
//	7        restore: room (0–15)
func (h *harness) run(ops []byte) {
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	rec := func() int { return next() % 24 }
	for len(ops) > 0 {
		switch op := next() % 8; op {
		case 0, 1, 2:
			h.push(rec(), 1+next()%4)
			h.check("push")
		case 3:
			if r := rec(); r < len(h.recs) && h.recs[r].N > 1 {
				h.drop(r, next()%int(h.recs[r].N))
				h.check("drop")
			}
		case 4:
			if r := rec(); r < len(h.recs) {
				h.slide(r, next()%(int(h.recs[r].N)+1))
				h.check("slide")
			}
		case 5:
			extra, before := next()%8, h.a.buf
			h.a.Compact(extra, h.p, h.blocks(), &h.order)
			h.compacted(before, extra)
			h.check("compact")
		case 6:
			if r := rec(); r < len(h.recs) {
				h.clear(r)
				h.check("clear")
			}
		case 7:
			h.restore(next() % 16)
			h.check("restore")
		}
	}
}

// TestArenaMatchesReference runs seeded op sequences under both policies.
func TestArenaMatchesReference(t *testing.T) {
	for _, pol := range policies {
		t.Run(pol.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(11))
			for seed := 0; seed < 200; seed++ {
				ops := make([]byte, 2_000)
				r.Read(ops)
				newHarness(t, pol.p, pol.free).run(ops)
			}
		})
	}
}

// FuzzArena holds both policies to the reference over byte-driven op
// sequences (harness.run has the format).
func FuzzArena(f *testing.F) {
	f.Add([]byte{0, 1, 3, 0, 2, 3, 5, 0, 1, 1, 3, 2, 3, 4, 0, 1, 4, 1, 0, 6, 1, 7, 3})
	f.Add([]byte{0, 0, 3, 0, 0, 3, 0, 0, 3, 5, 1, 3, 0, 2, 4, 1, 2, 6, 0, 5, 7, 7, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, pol := range policies {
			newHarness(t, pol.p, pol.free).run(ops)
		}
	})
}

// TestArenaZeroAlloc: once the array has the room, a compaction in place and
// a move into the room it leaves allocate nothing, the caller's block
// enumeration included.
func TestArenaZeroAlloc(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, pol := range policies {
		h := newHarness(t, pol.p, pol.free)
		for i := 0; i < 4_000; i++ {
			h.push(i%64, 1+i%3)
		}
		h.a.Compact(1_000, h.p, h.blocks(), &h.order)
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			b, before := &h.recs[i%64], h.a.buf
			h.a.Compact(256, h.p, h.blocks(), &h.order)
			h.compacted(before, 256)
			h.a.Move(b, int(b.N), h.p, h.blocks(), &h.order)
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocations a compaction and move, want 0", pol.name, allocs)
		}
		h.check("moves")
	}
}
