// Package arena is how D and the candidate log keep their lists: one element
// array, each list a block of it that only that list appends into, located by
// a Block in a record the owner keeps. A full block moves to the array's end
// (Move), leaving garbage; Compact makes every block exactly its list, in
// offset order, in place or in a new array, as the owner's Policy says.
//
// Invariant: a block grows only by taking free room and leaves garbage no
// larger, so garbage plus free room never exceed the room the last compaction
// or growth left plus what the owner dropped since (Drop): a structure at its
// working set compacts in the array it has.
package arena

import (
	"slices"
	"sync"
)

// Block locates a list. The top bit of Size, Mark, is the owner's: the arena
// keeps it and never counts it. An array holds fewer than 2³¹ elements.
type Block struct{ Off, N, Size uint32 }

// Mark is the owner's bit of Block.Size.
const Mark = 1 << 31

// Cap is the block's size without Mark.
func (b Block) Cap() uint32 { return b.Size &^ Mark }

// Policy is an owner's numbers. A Move without room compacts once garbage is
// 1/Garbage of the array (0: always), else grows it by 1/Grow plus the move. A
// compaction keeps an array with room for the lists, 1/Room of them and the
// move, at most Shrink times that (0: any); else it makes one with 1/NewRoom.
type Policy struct{ Garbage, Grow, Room, NewRoom, Shrink int }

// Blocks is how a compaction reaches the owner's blocks: At(i) for i < N, nil
// for a record without one. Live, if not 0, is what the room is sized by in
// place of the lists' total length.
type Blocks struct {
	N, Live int
	At      func(i int) *Block
}

// Order is a compaction's scratch, the blocks by offset; arenas sharing one
// take turns. It is not part of Blocks, whose At its lock would make escape.
type Order struct {
	mu   sync.Mutex
	keys []uint64
}

// Arena is one element array of blocks. The zero value is empty.
type Arena[T any] struct {
	buf     []T
	garbage int // elements in no block
}

// Make is an empty arena with room for capacity elements, for Append.
func Make[T any](capacity int) Arena[T] { return Arena[T]{buf: make([]T, 0, capacity)} }

// Buf is the array: blocks and garbage up to its length.
func (a *Arena[T]) Buf() []T { return a.buf }

// Window is b's list, its capacity b's block: an append within it is in place.
func (a *Arena[T]) Window(b Block) []T { return a.buf[b.Off : b.Off+b.N : b.Off+b.Cap()] }

// Append copies list to the array's end as a tight block: the restore path.
func (a *Arena[T]) Append(list []T) Block {
	off := len(a.buf)
	a.buf = append(a.buf, list...)
	return Block{Off: uint32(off), N: uint32(len(list)), Size: uint32(len(list))}
}

// Drop makes the first n elements of b's list garbage.
func (a *Arena[T]) Drop(b *Block, n int) {
	b.Off, b.N, b.Size = b.Off+uint32(n), b.N-uint32(n), b.Size-uint32(n)
	a.garbage += n
}

// Move gives b a block of size elements at the array's end, its list copied
// there. An array without the room is compacted or grown first, as p says.
func (a *Arena[T]) Move(b *Block, size int, p Policy, bs Blocks, order *Order) {
	if len(a.buf)+size > cap(a.buf) {
		if p.Garbage == 0 || p.Garbage*a.garbage >= len(a.buf) {
			a.Compact(size, p, bs, order)
		} else {
			a.buf = append(make([]T, 0, len(a.buf)+len(a.buf)/p.Grow+size), a.buf...)
		}
	}
	off := len(a.buf)
	a.buf = a.buf[:off+size]
	if b.N > 0 { // a compaction skips an empty block, so its Off may be stale
		copy(a.buf[off:], a.buf[b.Off:b.Off+b.N])
	}
	a.garbage += int(b.Cap())
	b.Off, b.Size = uint32(off), uint32(size)|b.Size&Mark
}

// Compact makes every block exactly its list, packed from the array's start
// in offset order, with room for extra elements more than p's.
func (a *Arena[T]) Compact(extra int, p Policy, bs Blocks, order *Order) {
	order.mu.Lock()
	defer order.mu.Unlock()
	live, o := 0, order.keys[:0]
	for i := 0; i < bs.N; i++ {
		if b := bs.At(i); b != nil {
			live += int(b.N)
			o = append(o, uint64(b.Off)<<32|uint64(i))
		}
	}
	if bs.Live != 0 {
		live = bs.Live
	}
	slices.Sort(o)
	dst := a.buf[:0]
	if need := live + live/p.Room + extra; need > cap(a.buf) || p.Shrink > 0 && p.Shrink*need < cap(a.buf) {
		dst = make([]T, 0, live+live/p.NewRoom+extra)
	}
	for _, k := range o {
		b, off := bs.At(int(uint32(k))), len(dst)
		dst = append(dst, a.buf[b.Off:b.Off+b.N]...) // in place, a memmove down
		b.Off, b.Size = uint32(off), b.N|b.Size&Mark
	}
	order.keys, a.buf, a.garbage = o, dst, 0
}

// Fit gives back the free room of an array without garbage beyond what a
// compaction keeping it would leave: a restore may size its array by a bound.
func (a *Arena[T]) Fit(p Policy) {
	if n := len(a.buf); cap(a.buf) > n+n/p.Room {
		a.buf = append(make([]T, 0, n+n/p.Room), a.buf...)
	}
}
