package motif

import (
	"testing"

	"motifstream/internal/racetest"
)

// TestHandOverRecyclesReleasedChunks runs the engine's hand-over on a scratch
// bound to a recycler over handOverWorld, and releases each event's lease
// four events later, as a delivery tier behind the apply loop does, except
// for every seventh event of the first half, whose windows are kept to the
// end. Every window equals the reference's when issued, and a kept one still
// does at the end: its chunk never came back, however often its neighbours
// were released. In the second half, where everything is released, the
// hand-over issues from a handful of chunks, again and again. Under the race
// detector a window whose chunk went back reads the poison.
func TestHandOverRecyclesReleasedChunks(t *testing.T) {
	ps := newEngineSet(t)
	ctx, stream := handOverWorld(1600)
	s, ref := NewScratch(NewRecycler()), new(Scratch)
	type held struct {
		got, want []Candidate
		lease     Lease
	}
	var lag, kept []held
	late := map[*chunk[Candidate]]bool{} // the chunks of the last quarter
	issued, poisoned := 0, 0
	for i, e := range stream {
		ctx.D.Insert(e)
		for gi, g := range ps.groups {
			g.StageInto(ctx, e, s, ps.slots[gi])
		}
		got, lease := s.HandOver(nil)
		scratchHoldsNothing(t, s)
		want := ps.reference(ctx, e, ref)
		sameCandidates(t, i, want, got)
		h := held{got, want, lease}
		if i < len(stream)/2 && i%7 == 0 {
			kept = append(kept, h)
			continue
		}
		if i >= 3*len(stream)/4 && lease.cands != nil {
			late[lease.cands] = true
			issued += len(got)
		}
		if lag = append(lag, h); len(lag) > 4 {
			lag[0].lease.Release()
			if racetest.Enabled && lag[0].lease.cands != nil && lag[0].lease.cands.refs.Load() == 0 {
				for _, c := range lag[0].got {
					if c.User != released || c.Program != "released" {
						t.Fatalf("event %d: a released window reads %v, not the poison", i, c)
					}
				}
				poisoned++
			}
			lag = lag[1:]
		}
	}
	for i, h := range kept {
		sameCandidates(t, i, h.want, h.got)
	}
	if len(late) > 4 || issued < 10*candChunk {
		t.Fatalf("the last quarter's %d candidates came from %d chunks; want chunks issued again", issued, len(late))
	}
	t.Logf("the last quarter's %d candidates came from %d chunks", issued, len(late))
	if racetest.Enabled && poisoned == 0 {
		t.Fatal("vacuous: no released window's chunk went back")
	}
}
