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

// benchSegment builds a cut the size the benchmark deployment writes:
// targets dirty D targets of perTarget entries each, and cands candidates
// from three programs spread over cands/2 users. It encodes as a delta or
// as a base alike.
func benchSegment(targets, perTarget, cands int) *mapState {
	r := rand.New(rand.NewSource(15))
	programs := []string{"diamond", "triangle-closure", "m017-content-coaction"}
	st := newMapState()
	st.SweepClock = 1_700_000_000_000
	for i := 0; i < targets; i++ {
		list := make([]dynstore.InEdge, perTarget)
		for j := range list {
			list[j] = dynstore.InEdge{B: graph.VertexID(r.Intn(20_000)), TS: st.SweepClock + int64(i*perTarget+j)}
		}
		st.Targets[graph.VertexID(20_000+i)] = list
	}
	for i := 0; i < cands; i++ {
		a, item := graph.VertexID(r.Intn(cands/2)), graph.VertexID(20_000+r.Intn(targets))
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

// TestDecodeAllocBudget gates what the compactor pays to decode a segment:
// a constant — cursor, segment, three runs, the three interned program
// names — plus one array per arena chunk (4096 D entries or Via elements,
// 512 candidates), never a term in the segment's bytes, its keys or its
// users. The stream-reader stack this replaced allocated once per decoded
// byte; the map-of-lists state after it, once per logged user.
func TestDecodeAllocBudget(t *testing.T) {
	for _, shape := range []struct {
		name                      string
		targets, perTarget, cands int
	}{
		{"benchmark-shaped cut", 2000, 3, 500},
		{"same keys, four times the entries", 2000, 12, 500},
		{"same targets, four times the candidates", 2000, 3, 2000},
	} {
		st := benchSegment(shape.targets, shape.perTarget, shape.cands).segment()
		var base, delta bytes.Buffer
		base.Write(st.AppendBase(nil))
		if _, err := st.WriteTo(&delta); err != nil {
			t.Fatal(err)
		}
		const budget = 24
		if got := testing.AllocsPerRun(5, func() {
			if _, err := ParseDelta(delta.Bytes(), nil); err != nil {
				t.Fatal(err)
			}
		}); got > budget {
			t.Errorf("%s: ParseDelta of %d bytes allocates %.0f times, budget %d", shape.name, delta.Len(), got, budget)
		}
		if got := testing.AllocsPerRun(5, func() {
			if _, err := DecodeBase(base.Bytes(), nil); err != nil {
				t.Fatal(err)
			}
		}); got > budget {
			t.Errorf("%s: DecodeBase of %d bytes allocates %.0f times, budget %d", shape.name, base.Len(), got, budget)
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
	st := benchSegment(2000, 3, 500).segment()
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
