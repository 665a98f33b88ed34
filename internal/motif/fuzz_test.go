package motif

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"motifstream/internal/graph"
)

// FuzzPlanMatchesReference draws a random world and a share group of plans —
// the shape (support threshold or co-actors), threshold, window, trigger
// types, fanout cap, candidate cap, chain depth, group size and whether
// already-follows suppression is on, all from the fuzzer — and requires the
// executor's output, per member and per event, to equal the test-only
// references exactly (order, Via, Score, Program): the op-list interpreter
// for every member, run in the group and alone, plus the hand-written
// diamond, fresh-follow or triangle for the shapes they cover. What the
// executor's emit path shares it must share by the ownership rule on
// Candidate.Via, and keep none of in the scratch. The first seeds are the
// rows of the three differential tests in planned_test.go, the rest draw
// co-actor groups and suppression off (each emits candidates on this smaller
// world too: 17 to 4695 of them).
func FuzzPlanMatchesReference(f *testing.F) {
	const follow, retweet, favorite = 1 << graph.Follow, 1 << graph.Retweet, 1 << graph.Favorite
	const all = follow | retweet | favorite
	// world seed, k, window seconds, trigger-type mask, fanout, candidate
	// cap, chain depth, group size, co-actor shape, suppression off
	f.Add(int64(1), uint8(2), uint16(300), uint8(follow), uint8(0), uint8(0), uint8(1), uint8(0), false, false)
	f.Add(int64(2), uint8(3), uint16(600), uint8(follow), uint8(64), uint8(100), uint8(1), uint8(0), false, false)
	f.Add(int64(3), uint8(2), uint16(120), uint8(retweet|favorite), uint8(8), uint8(3), uint8(1), uint8(0), false, false)
	f.Add(int64(4), uint8(4), uint16(1800), uint8(follow|retweet), uint8(16), uint8(0), uint8(1), uint8(0), false, false)
	f.Add(int64(7), uint8(1), uint16(600), uint8(follow), uint8(0), uint8(5), uint8(1), uint8(0), false, false)
	f.Add(int64(11), uint8(3), uint16(600), uint8(follow|retweet), uint8(32), uint8(0), uint8(1), uint8(4), false, false)
	f.Add(int64(12), uint8(1), uint16(60), uint8(follow|favorite), uint8(0), uint8(9), uint8(3), uint8(2), false, false)
	f.Add(int64(21), uint8(0), uint16(600), uint8(all), uint8(64), uint8(0), uint8(0), uint8(0), true, false)
	f.Add(int64(22), uint8(0), uint16(60), uint8(retweet|favorite), uint8(8), uint8(3), uint8(0), uint8(2), true, true)
	f.Add(int64(23), uint8(0), uint16(1800), uint8(all), uint8(4), uint8(2), uint8(0), uint8(4), true, false)
	f.Add(int64(24), uint8(2), uint16(600), uint8(follow|retweet), uint8(0), uint8(0), uint8(2), uint8(3), false, true)

	f.Fuzz(func(t *testing.T, seed int64, k uint8, windowSec uint16, typeMask, fanout, maxCands, depth, size uint8, coActors, noFollows bool) {
		window := time.Duration(max(windowSec, 1)) * time.Second
		if typeMask &= all; typeMask == 0 {
			typeMask = follow
		}
		var types []graph.EdgeType
		for et := graph.EdgeType(0); et < NumEdgeTypes; et++ {
			if typeMask&(1<<et) != 0 {
				types = append(types, et)
			}
		}
		win, fan := windowsOf(window, types...), int(fanout)%65
		k %= 5 // 0 and 1 are the trigger-only shape, 2..4 a threshold

		// Members share the prefix (windows, fanout, probe kind) and differ
		// in everything past it, as a share key allows: member i moves on
		// from the drawn threshold, depth and candidate cap.
		plans := make([]*PlannedProgram, 1+int(size)%5)
		// hands[i] is the hand-written detector of member i's shape, where
		// there is one: not for chains, nor for k=1 over more than follows.
		hands := make([]interface {
			OnEdge(*Context, graph.Edge) []Candidate
		}, len(plans))
		for i := range plans {
			mk, mdepth, mcands := 1, 1+(int(depth)+2+i)%3, (int(maxCands)+3*i)%101
			if k >= 2 {
				mk = 2 + (int(k)-2+i)%4
			}
			expandCaps := make([]int, mdepth-1)
			for j := range expandCaps {
				expandCaps[j] = mcands % 7 // 0 expands every survivor
			}
			name := fmt.Sprintf("m%d", i)
			shape := Shape{WindowMS: win, K: mk, MaxFanout: fan, ExpandCaps: expandCaps, MaxCandidates: mcands}
			if coActors {
				shape = Shape{WindowMS: win, K: 1, MaxFanout: fan, MaxCandidates: mcands, CoActors: true}
			}
			plan, err := NewPlannedProgram(name, shape)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case coActors:
				// The hand-written triangle fires on every type, and its zero
				// fanout means 64, not unlimited.
				if typeMask == all && fan > 0 {
					hands[i] = handTriangle{Name: name, Window: window, MaxCoActors: fan, MaxCandidates: mcands}
				}
			case mdepth > 1:
			case mk > 1:
				hands[i] = newHandDiamond(DiamondConfig{
					Name: name, K: mk, Window: window, EdgeTypes: types, MaxFanout: fan, MaxCandidates: mcands,
				})
			case typeMask == follow:
				plan, hands[i] = NewFreshFollow(mcands), handFreshFollow{maxCandidates: mcands}
			}
			plans[i] = plan
		}
		group, err := NewPlannedGroup(plans)
		if err != nil {
			t.Fatal(err)
		}
		slots := make([]int, len(plans))
		for i := range slots {
			slots[i] = i
		}

		ctx, stream := randomWorld(seed, 30, 260, 400)
		if noFollows {
			ctx.Follows = nil
		}
		s := GetScratch()
		defer PutScratch(s)
		owners := map[*graph.VertexID]Candidate{}
		for i, e := range stream {
			ctx.D.Insert(e)
			res := make([][]Candidate, len(plans))
			group.DetectInto(ctx, e, s, res, slots)
			scratchHoldsNothing(t, s)
			for j, plan := range plans {
				want := interpretOps(ctx, plan.Name(), plan.Ops(), e)
				sameCandidates(t, i, want, res[j])
				viaOwnership(t, owners, res[j])
				sameCandidates(t, i, want, plan.OnEdge(ctx, e))
				if hands[j] != nil {
					sameCandidates(t, i, hands[j].OnEdge(ctx, e), res[j])
				}
			}
		}
	})
}

// viaOwnership holds cands — one member's candidates for one event — to the
// ownership rule on Candidate.Via: no spare capacity, no element shared with
// a candidate of another trigger (the chunk is, its windows are not), and an
// append to one candidate's Via changing no other's. owners remembers every Via element seen in the run
// by its address (which also keeps the arrays alive, so an address is never
// reused). It returns how many of cands have the Via of a candidate seen
// before: a window shared by the members that emit one user.
func viaOwnership(t *testing.T, owners map[*graph.VertexID]Candidate, cands []Candidate) (shared int) {
	t.Helper()
	var before [][]graph.VertexID
	for _, c := range cands {
		if len(c.Via) != cap(c.Via) {
			t.Fatalf("candidate %v: Via has len %d, cap %d", c, len(c.Via), cap(c.Via))
		}
		before = append(before, append([]graph.VertexID(nil), c.Via...))
		for j := range c.Via {
			o, seen := owners[&c.Via[j]]
			if seen && o.Trigger != c.Trigger {
				t.Fatalf("Via element shared across triggers: %v and %v", o, c)
			}
			if seen && j == 0 {
				shared++
			}
			owners[&c.Via[j]] = c
		}
	}
	for _, c := range cands {
		_ = append(c.Via, ^graph.VertexID(0))
	}
	for i, c := range cands {
		if !slices.Equal(c.Via, before[i]) {
			t.Fatalf("candidate %v: Via was %v before another candidate's was appended to", c, before[i])
		}
	}
	return shared
}

// scratchHoldsNothing checks the hygiene DetectInto promises a pooled
// scratch: no Candidate left behind, used capacity included, and the Via
// staging reset.
func scratchHoldsNothing(t *testing.T, s *Scratch) {
	t.Helper()
	for _, c := range s.stage[:cap(s.stage)] {
		if c.Via != nil || c.Program != "" {
			t.Fatalf("scratch retains candidate %v", c)
		}
	}
	for i, ref := range s.memo[:cap(s.memo)] {
		if ref != (viaRef{}) {
			t.Fatalf("scratch remembers the Via of survivor %d", i)
		}
	}
	if len(s.stage) != 0 || len(s.refs) != 0 || len(s.runs) != 0 || len(s.viaElems) != 0 || len(s.viaSet) != 0 {
		t.Fatalf("scratch staging not reset: %d staged, %d refs, %d runs, %d Via elements, %d survivors set",
			len(s.stage), len(s.refs), len(s.runs), len(s.viaElems), len(s.viaSet))
	}
	// The unissued tails are all of an issued candidate the scratch may be
	// next to, and they are blank.
	for _, c := range s.cands {
		if c.Via != nil || c.Program != "" {
			t.Fatalf("scratch's unissued tail holds candidate %v", c)
		}
	}
}
