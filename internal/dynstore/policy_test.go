package dynstore

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"
	"time"

	"motifstream/internal/graph"
)

// TestArenaPolicyTrajectory pins D's arena policy by its effect: a fixed
// seeded stream of inserts at a retention and a cap, with a sweep every ten
// seconds of stream time, must take every shard's arena through exactly the
// same lengths and capacities, step by step. Nothing else checks the policy's
// numbers (when a relocation compacts rather than grows, the room a
// compaction leaves, when an array is replaced), so a refactor of the
// mechanism that changes one fails here.
func TestArenaPolicyTrajectory(t *testing.T) {
	s := newStore(Options{Retention: 30 * time.Second, MaxPerTarget: 12}, 2)
	r := rand.New(rand.NewSource(36))
	sum := crc32.NewIEEE()
	var buf [8]byte
	steps, grown, compacted := 0, 0, 0
	last := make([][2]int, len(s.shards))
	observe := func() {
		steps++
		for k := range s.shards {
			n, c := arenaLenCap(&s.shards[k])
			binary.LittleEndian.PutUint32(buf[:4], uint32(n))
			binary.LittleEndian.PutUint32(buf[4:], uint32(c))
			sum.Write(buf[:])
			if c != last[k][1] {
				grown++
			}
			if n < last[k][0] {
				compacted++
			}
			last[k] = [2]int{n, c}
		}
	}
	ts, lastSweep := int64(1_000_000), int64(1_000_000)
	for i := 0; i < 30_000; i++ {
		var c graph.VertexID
		switch x := r.Intn(10); {
		case x < 5: // a hot target
			c = graph.VertexID(r.Intn(40))
		case x < 8: // a warm one
			c = graph.VertexID(100 + r.Intn(2_000))
		default: // a fresh one
			c = graph.VertexID(1_000_000 + i)
		}
		ts += int64(r.Intn(8))
		s.Insert(edge(graph.VertexID(r.Intn(5_000)), c, ts-int64(r.Intn(3))))
		observe()
		if ts-lastSweep >= 10_000 {
			s.Sweep(ts)
			lastSweep = ts
			observe()
		}
	}
	got := [4]uint32{sum.Sum32(), uint32(steps), uint32(grown), uint32(compacted)}
	want := [4]uint32{4279068639, 30010, 82, 157}
	if got != want {
		t.Errorf("arena trajectory {crc, steps, capacity changes, compactions} = %v, want %v", got, want)
	}
}

// arenaLenCap is the length and capacity of sh's edge arena.
func arenaLenCap(sh *shard) (int, int) { return len(sh.arena.Buf()), cap(sh.arena.Buf()) }
