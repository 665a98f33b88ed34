package graph

import (
	"math"
	"slices"
)

// Packed is an immutable map from vertex IDs to AdjLists in flat arrays (the
// array-packed layout of Lin et al., PAPERS.md): every list back to back in
// one ID array, and the keys in a power-of-two open-addressing table —
// Fibonacci hash, linear probing — whose slot is also the key's row, so
// offsets[s] and offsets[s+1] bound slot s's list and an empty slot is an
// empty row. Nothing in it holds a pointer the garbage collector must scan,
// and a lookup allocates nothing. The zero value is not usable; build one
// with Pack.
type Packed struct {
	keys    []VertexID
	offsets []uint32
	ids     []VertexID
	// shift is 64 - log2(len(keys)): a key's home slot is the top bits of
	// its Fibonacci hash.
	shift uint
	n     int
}

// Pair is one (key, value) entry of a Packed map.
type Pair struct{ Key, Val VertexID }

// Pack builds the map from each key to its values, sorted and with
// duplicates dropped, from pairs in any order. It panics on more than 2³²
// pairs.
func Pack(pairs []Pair) Packed {
	if uint64(len(pairs)) > math.MaxUint32 {
		panic("graph: Pack over 2^32 pairs")
	}
	// Pass 1: place every key, counting its values; the table doubles
	// whenever it would pass three quarters full, so a probe always meets
	// an empty slot.
	p := Packed{keys: make([]VertexID, 1), shift: 64}
	count := make([]uint32, 1)
	for _, pr := range pairs {
		s := findSlot(p.keys, count, p.shift, pr.Key)
		if count[s] == 0 {
			if 4*(p.n+1) > 3*len(p.keys) {
				count = p.grow(count)
				s = findSlot(p.keys, count, p.shift, pr.Key)
			}
			p.keys[s] = pr.Key
			p.n++
		}
		count[s]++
	}
	// Pass 2: rows in slot order, each value at its row's cursor.
	p.offsets = make([]uint32, len(p.keys)+1)
	for s, c := range count {
		p.offsets[s+1] = p.offsets[s] + c
	}
	next := count
	copy(next, p.offsets)
	p.ids = make([]VertexID, len(pairs))
	for _, pr := range pairs {
		s := p.slot(pr.Key)
		p.ids[next[s]] = pr.Val
		next[s]++
	}
	// Pass 3: sort each row and drop its duplicates, closing the gaps.
	var w uint32
	for s := range p.keys {
		lo, hi := p.offsets[s], p.offsets[s+1]
		p.offsets[s] = w
		row := p.ids[lo:hi]
		slices.Sort(row)
		for _, v := range row {
			if w == p.offsets[s] || p.ids[w-1] != v {
				p.ids[w] = v
				w++
			}
		}
	}
	p.offsets[len(p.keys)] = w
	if int(w) < len(p.ids) {
		p.ids = slices.Clone(p.ids[:w])
	}
	return p
}

// grow doubles the table during Pack's first pass, re-placing every key with
// its count, and returns the new count array.
func (p *Packed) grow(count []uint32) []uint32 {
	keys := make([]VertexID, 2*len(p.keys))
	next := make([]uint32, len(keys))
	p.shift--
	for s, c := range count {
		if c > 0 {
			t := findSlot(keys, next, p.shift, p.keys[s])
			keys[t], next[t] = p.keys[s], c
		}
	}
	p.keys = keys
	return next
}

// findSlot returns key's slot in a table under construction, or the empty
// slot (count 0) where it belongs.
func findSlot(keys []VertexID, count []uint32, shift uint, key VertexID) int {
	mask := len(keys) - 1
	for s := int(uint64(key) * fibHash >> shift); ; s = (s + 1) & mask {
		if count[s] == 0 || keys[s] == key {
			return s
		}
	}
}

// slot returns key's slot, or the empty slot where a probe for it ends.
func (p *Packed) slot(key VertexID) int {
	mask := len(p.keys) - 1
	for s := int(uint64(key) * fibHash >> p.shift); ; s = (s + 1) & mask {
		if p.offsets[s] == p.offsets[s+1] || p.keys[s] == key {
			return s
		}
	}
}

// Row returns key's list, nil when key has none. The list is a window of the
// shared ID array, capacity-limited so an append copies; it must not be
// modified.
func (p *Packed) Row(key VertexID) AdjList {
	s := p.slot(key)
	lo, hi := p.offsets[s], p.offsets[s+1]
	if lo == hi {
		return nil
	}
	return AdjList(p.ids[lo:hi:hi])
}

// Each calls fn with every key and its list, in table order.
func (p *Packed) Each(fn func(key VertexID, row AdjList)) {
	for s, key := range p.keys {
		if lo, hi := p.offsets[s], p.offsets[s+1]; lo < hi {
			fn(key, AdjList(p.ids[lo:hi:hi]))
		}
	}
}

// Len returns the number of keys.
func (p *Packed) Len() int { return p.n }

// NumValues returns the total length of all lists.
func (p *Packed) NumValues() int { return len(p.ids) }

// MemoryBytes returns the size of the three arrays, which Pack leaves at
// their exact lengths.
func (p *Packed) MemoryBytes() uint64 {
	return 8*uint64(len(p.keys)) + 4*uint64(len(p.offsets)) + 8*uint64(len(p.ids))
}
