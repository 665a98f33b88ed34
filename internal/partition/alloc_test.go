package partition

import (
	"bytes"
	"math/rand"
	"testing"

	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
	"motifstream/internal/racetest"
)

// cutShape is the size of one checkpoint cut: targets dirty D targets of
// perTarget entries each, and cands candidates spread over users users.
type cutShape struct {
	name                             string
	targets, perTarget, cands, users int
}

// cutShapes are the cuts the codec's budgets are held at: the benchmark's
// steady shape, two that each grow one dimension fourfold, and a cut as a
// replica of the multiquery benchmark writes it in its saturated phase —
// about 27 000 candidates over 1 900 users and 1 800 targets, 1.5 MB.
var cutShapes = []cutShape{
	{"benchmark-shaped cut", 2000, 3, 500, 250},
	{"same keys, four times the entries", 2000, 12, 500, 250},
	{"same targets, four times the candidates", 2000, 3, 2000, 1000},
	{"measured multiquery cut", 1800, 4, 27_000, 1900},
}

// benchSegment builds a cut of the given shape: its candidates come from
// three programs. It encodes as a delta or as a base alike.
func benchSegment(shape cutShape) *mapState {
	r := rand.New(rand.NewSource(15))
	programs := []string{"diamond", "triangle-closure", "m017-content-coaction"}
	st := newMapState()
	st.SweepClock = 1_700_000_000_000
	for i := 0; i < shape.targets; i++ {
		list := make([]dynstore.InEdge, shape.perTarget)
		for j := range list {
			list[j] = dynstore.InEdge{B: graph.VertexID(r.Intn(20_000)), TS: st.SweepClock + int64(i*shape.perTarget+j)}
		}
		st.Targets[graph.VertexID(20_000+i)] = list
	}
	for i := 0; i < shape.cands; i++ {
		a, item := graph.VertexID(r.Intn(shape.users)), graph.VertexID(20_000+r.Intn(shape.targets))
		via := []graph.VertexID{graph.VertexID(r.Intn(20_000)), graph.VertexID(r.Intn(20_000)), graph.VertexID(r.Intn(20_000))}
		st.Users[a] = append(st.Users[a], motif.Candidate{
			User: a, Item: item, Via: via,
			Trigger:      graph.Edge{Src: via[2], Dst: item, TS: st.SweepClock + int64(i)},
			DetectedAtMS: st.SweepClock + int64(i), Program: programs[i%3], Score: 3,
		})
		st.Items[item]++
	}
	return st
}

// foldChain builds what the compactor folds: a base and deltas of the given
// shape, encoded. Each delta overlaps the base on every other target, as
// successive cuts do, moves the rest to targets of its own, and deletes one
// of the base's users and one of its targets (tombstones). It returns the
// files and the state each holds, oldest first.
func foldChain(shape cutShape, deltas int) ([][]byte, []*mapState) {
	var files [][]byte
	var states []*mapState
	for i := 0; i <= deltas; i++ {
		st := benchSegment(shape)
		if i == 0 {
			files, states = append(files, st.segment().AppendBase(nil)), append(states, st)
			continue
		}
		for j := 0; j < shape.targets; j += 2 {
			c := graph.VertexID(20_000 + j)
			st.Targets[c+graph.VertexID(shape.targets*i)] = st.Targets[c]
			delete(st.Targets, c)
		}
		st.Users[graph.VertexID(i)] = nil
		st.Targets[graph.VertexID(20_000+2*i+1)] = nil
		files, states = append(files, st.segment().AppendDelta(nil)), append(states, st)
	}
	return files, states
}

// TestDecodeAllocBudget gates what decoding a segment costs: a constant —
// cursor, segment, the walk's three runs and the decode's, the three
// interned program names — plus one array per arena chunk (4096 D entries or
// Via elements, 512 candidates), never a term in the segment's bytes, its
// keys or its users. The stream-reader stack this replaced allocated once
// per decoded byte; the map-of-lists state after it, once per logged user.
func TestDecodeAllocBudget(t *testing.T) {
	for _, shape := range cutShapes {
		st := benchSegment(shape).segment()
		var base, delta bytes.Buffer
		base.Write(st.AppendBase(nil))
		if _, err := st.WriteTo(&delta); err != nil {
			t.Fatal(err)
		}
		// The small shapes fit in the constant; the measured cut adds its
		// arena chunks: 512 candidates, and its three Vias a candidate in
		// 4096-element arrays.
		budget := 24
		if shape == cutShapes[3] {
			budget += shape.cands/candidateChunk + 3*shape.cands/4096
		}
		if got := testing.AllocsPerRun(5, func() {
			if _, err := ParseDelta(delta.Bytes(), nil); err != nil {
				t.Fatal(err)
			}
		}); got > float64(budget) {
			t.Errorf("%s: ParseDelta of %d bytes allocates %.0f times, budget %d", shape.name, delta.Len(), got, budget)
		}
		if got := testing.AllocsPerRun(5, func() {
			if _, err := DecodeBase(base.Bytes(), nil); err != nil {
				t.Fatal(err)
			}
		}); got > float64(budget) {
			t.Errorf("%s: DecodeBase of %d bytes allocates %.0f times, budget %d", shape.name, base.Len(), got, budget)
		}
	}
}

// TestFoldAllocBudget gates the compactor's fold: a base and eight deltas
// walked and folded into a buffer with room cost a constant number of
// allocations — the walk's three span runs a segment, the chain's list of
// segments, the merge's outputs — at every cut shape, the measured
// multiquery cut's included: nothing scales with the bytes, the users or the
// candidates. The decoding fold it replaced paid an arena chunk per 512
// candidates a segment.
func TestFoldAllocBudget(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const budget = 56
	for _, shape := range cutShapes {
		files, _ := foldChain(shape, 8)
		fold := func(buf []byte) []byte {
			var ch Chain
			for i, file := range files {
				if err := ch.Add(file, i == 0); err != nil {
					t.Fatal(err)
				}
			}
			return ch.AppendBase(buf)
		}
		buf := fold(nil)
		got := testing.AllocsPerRun(3, func() { buf = fold(buf[:0]) })
		t.Logf("%s: a fold of a %d-byte base and 8 deltas allocates %.0f times", shape.name, len(files[0]), got)
		if got > budget {
			t.Errorf("%s: the fold allocates %.0f times, budget %d", shape.name, got, budget)
		}
	}
}

// TestSegmentAppendZeroAlloc gates the checkpoint writer's encode: appending
// a sealed delta segment, and a sealed base, into a buffer that has room for
// it allocates nothing — every section is appended into the caller's bytes.
func TestSegmentAppendZeroAlloc(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	st := benchSegment(cutShapes[0]).segment()
	buf := st.AppendBase(st.AppendDelta(nil))
	if got := testing.AllocsPerRun(5, func() {
		buf = st.AppendDelta(buf[:0])
	}); got != 0 {
		t.Errorf("AppendDelta into a buffer with room allocates %.0f times, want 0", got)
	}
	if got := testing.AllocsPerRun(5, func() {
		buf = st.AppendBase(buf[:0])
	}); got != 0 {
		t.Errorf("AppendBase into a buffer with room allocates %.0f times, want 0", got)
	}
}
