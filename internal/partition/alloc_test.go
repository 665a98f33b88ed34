package partition

import (
	"bytes"
	"math/rand"
	"testing"

	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
)

// benchSegment builds a cut the size the benchmark deployment writes:
// targets dirty D targets of perTarget entries each, and cands candidates
// from three programs spread over cands/2 users. As a base it carries the
// same maps.
func benchSegment(targets, perTarget, cands int) *CheckpointState {
	r := rand.New(rand.NewSource(15))
	programs := []string{"diamond", "triangle-closure", "m017-content-coaction"}
	st := NewCheckpointState()
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

func (st *CheckpointState) asDelta() *Delta {
	return &Delta{SweepClock: st.SweepClock, Users: st.Users, Items: st.Items, Dynamic: dynstore.Delta{Targets: st.Targets}}
}

// TestDecodeAllocBudget gates what the compactor pays to decode a segment:
// a constant (cursor, maps, arenas, the three interned program names, the
// read-all buffer's doublings) plus one candidate list per logged user —
// never a term in the segment's bytes, its D entries or its candidates.
// The stream-reader stack this replaced allocated once per decoded byte.
func TestDecodeAllocBudget(t *testing.T) {
	for _, shape := range []struct {
		name                      string
		targets, perTarget, cands int
	}{
		{"benchmark-shaped cut", 2000, 3, 500},
		{"same keys, four times the entries", 2000, 12, 500},
		{"same targets, four times the candidates", 2000, 3, 2000},
	} {
		st := benchSegment(shape.targets, shape.perTarget, shape.cands)
		var base, delta bytes.Buffer
		if _, err := st.WriteBaseTo(&base); err != nil {
			t.Fatal(err)
		}
		if _, err := st.asDelta().WriteTo(&delta); err != nil {
			t.Fatal(err)
		}
		budget := float64(64 + len(st.Users))
		if got := testing.AllocsPerRun(5, func() {
			if _, _, err := DecodeDelta(bytes.NewReader(delta.Bytes())); err != nil {
				t.Fatal(err)
			}
		}); got > budget {
			t.Errorf("%s: DecodeDelta of %d bytes allocates %.0f times, budget %.0f (64 + %d users)",
				shape.name, delta.Len(), got, budget, len(st.Users))
		}
		if got := testing.AllocsPerRun(5, func() {
			if _, err := NewCheckpointState().ReadBaseFrom(bytes.NewReader(base.Bytes())); err != nil {
				t.Fatal(err)
			}
		}); got > budget {
			t.Errorf("%s: ReadBaseFrom of %d bytes allocates %.0f times, budget %.0f (64 + %d users)",
				shape.name, base.Len(), got, budget, len(st.Users))
		}
	}
}
