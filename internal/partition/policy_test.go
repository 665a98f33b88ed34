package partition

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"
	"testing"

	"motifstream/internal/arena"
	"motifstream/internal/codecutil"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
)

// TestLogArenaPolicyTrajectory pins the candidate log's arena policy by its
// effect: a fixed seeded stream of batches, whose users come and go over a
// sliding window and sit at depth, with a restore halfway, must take the
// three arenas through exactly the same lengths and capacities, batch by
// batch. Nothing else checks the policy's numbers (the sizes a block moves
// at, the room a compaction leaves, when an array is replaced, the room a
// restored array keeps), so a refactor of the mechanism that changes one
// fails here.
func TestLogArenaPolicyTrajectory(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	l := newCandidateLog(16)
	sum := crc32.NewIEEE()
	var buf [4]byte
	steps, grown, compacted := 0, 0, 0
	var last [6]int
	observe := func() {
		steps++
		var now [6]int
		now[0], now[1] = arenaLenCap(&l.runs)
		now[2], now[3] = arenaLenCap(&l.progs)
		now[4], now[5] = arenaLenCap(&l.vias)
		for _, v := range now {
			binary.LittleEndian.PutUint32(buf[:], uint32(v))
			sum.Write(buf[:])
		}
		for i := 0; i < 6; i += 2 {
			if now[i+1] != last[i+1] {
				grown++
			}
			if now[i] < last[i] {
				compacted++
			}
		}
		last = now
	}
	const batches = 400
	for step := 0; step < batches; step++ {
		var cands []motif.Candidate
		for len(cands) < 60 {
			// The active users slide from 0 up: early ones go quiet, new ones come.
			user := graph.VertexID(step/2 + r.Intn(150))
			e := graph.Edge{Src: graph.VertexID(10_000 + step), Dst: graph.VertexID(r.Intn(50)), TS: int64(step)}
			via := make([]graph.VertexID, r.Intn(5))
			for i := range via {
				via[i] = graph.VertexID(20_000 + r.Intn(100))
			}
			for m := 0; m < 1+r.Intn(5); m++ {
				cands = append(cands, motif.Candidate{
					User: user, Item: e.Dst, Trigger: e, DetectedAtMS: e.TS, Via: via,
					Program: fmt.Sprintf("p%d", m), Score: float64(len(via)),
				})
			}
		}
		l.addAll(cands)
		observe()
		if step == batches/2 {
			keys := make([]graph.VertexID, 0, len(l.index))
			for a := range l.index {
				keys = append(keys, a)
			}
			slices.Sort(keys)
			var lists codecutil.Run[graph.VertexID, []motif.Candidate]
			for _, a := range keys {
				lists = append(lists, codecutil.Entry[graph.VertexID, []motif.Candidate]{Key: a, Val: l.get(a)})
			}
			l = newCandidateLog(16)
			l.install(lists)
			observe()
		}
	}
	got := [4]uint32{sum.Sum32(), uint32(steps), uint32(grown), uint32(compacted)}
	want := [4]uint32{2849168406, 401, 128, 329}
	if got != want {
		t.Errorf("arena trajectory {crc, steps, capacity changes, compactions} = %v, want %v", got, want)
	}
}

// arenaLenCap is the length and capacity of one of the log's arenas.
func arenaLenCap[T any](a *arena.Arena[T]) (int, int) { return len(a.Buf()), cap(a.Buf()) }
