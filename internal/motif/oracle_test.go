package motif

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/statstore"
)

// refDetector is a brute-force oracle for the diamond and its chains: it
// keeps the entire dynamic history and, per event, recomputes from first
// principles the set of (user, item) pairs whose motif the event completes.
// It shares no code with the production path (no AdjList, no D store, no
// intersections, no plan), so agreement is meaningful.
type refDetector struct {
	k        int
	windowMS int64
	// hops is the static chain length from user to support: 1 (or 0) is the
	// diamond, and each further hop hands the motif on to everyone who
	// follows a user the shorter chain reaches.
	hops int
	// follows[a] is the set of B's that a follows.
	follows map[graph.VertexID]map[graph.VertexID]bool
	history []graph.Edge
}

func newRefDetector(k int, window time.Duration, static []graph.Edge) *refDetector {
	follows := map[graph.VertexID]map[graph.VertexID]bool{}
	for _, e := range static {
		m := follows[e.Src]
		if m == nil {
			m = map[graph.VertexID]bool{}
			follows[e.Src] = m
		}
		m[e.Dst] = true
	}
	return &refDetector{k: k, windowMS: window.Milliseconds(), follows: follows}
}

// onEdge returns the sorted "user>item" keys completed by e.
func (r *refDetector) onEdge(e graph.Edge) []string {
	r.history = append(r.history, e)
	if e.Type != graph.Follow {
		return nil
	}
	// Distinct actors on e.Dst within the window ending at e.TS.
	actors := map[graph.VertexID]bool{}
	for _, h := range r.history {
		if h.Dst == e.Dst && h.Type == graph.Follow && h.TS >= e.TS-r.windowMS && h.TS <= e.TS {
			actors[h.Src] = true
		}
	}
	if len(actors) < r.k {
		return nil
	}
	// reached holds the users at the current chain length: first those who
	// follow at least k actors, then, hop by hop, those who follow any of
	// them. Intermediate users are not suppressed, only recipients are.
	reached, need := actors, r.k
	for hop := 0; hop < max(r.hops, 1); hop++ {
		next := map[graph.VertexID]bool{}
		for a, bs := range r.follows {
			n := 0
			for b := range reached {
				if bs[b] {
					n++
				}
			}
			if n >= need {
				next[a] = true
			}
		}
		reached, need = next, 1
	}
	var out []string
	for a := range reached {
		if a == e.Dst || r.follows[a][e.Dst] {
			continue // the item itself, or a user who already follows it
		}
		out = append(out, fmt.Sprintf("%d>%d", a, e.Dst))
	}
	sort.Strings(out)
	return out
}

// TestDiamondAgainstOracle drives random worlds through both the
// production diamond and the brute-force oracle and requires identical
// detections event by event.
func TestDiamondAgainstOracle(t *testing.T) {
	r := rand.New(rand.NewSource(20140901))
	for trial := 0; trial < 30; trial++ {
		users := 5 + r.Intn(20)
		k := 2 + r.Intn(2)
		window := time.Duration(1+r.Intn(10)) * time.Minute

		// Random static graph.
		var static []graph.Edge
		for a := 0; a < users; a++ {
			deg := r.Intn(6)
			for j := 0; j < deg; j++ {
				b := graph.VertexID(r.Intn(users))
				if b != graph.VertexID(a) {
					static = append(static, graph.Edge{
						Src: graph.VertexID(a), Dst: b, Type: graph.Follow,
					})
				}
			}
		}

		b := &statstore.Builder{}
		s := statstore.New(b.Build(static))
		d := dynstore.New(dynstore.Options{Retention: window})
		followsIdx := map[graph.VertexID]map[graph.VertexID]bool{}
		for _, e := range static {
			m := followsIdx[e.Src]
			if m == nil {
				m = map[graph.VertexID]bool{}
				followsIdx[e.Src] = m
			}
			m[e.Dst] = true
		}
		ctx := &Context{
			S: s, D: d,
			Follows: func(a, c graph.VertexID) bool { return followsIdx[a][c] },
		}
		prog := NewDiamond(DiamondConfig{K: k, Window: window})
		oracle := newRefDetector(k, window, static)

		// Random dynamic stream with clustered targets so motifs form.
		now := int64(1_000_000)
		for i := 0; i < 300; i++ {
			now += int64(r.Intn(60_000))
			e := graph.Edge{
				Src:  graph.VertexID(r.Intn(users)),
				Dst:  graph.VertexID(r.Intn(users/2 + 1)), // concentrated
				Type: graph.Follow,
				TS:   now,
			}
			if e.Src == e.Dst {
				continue
			}
			d.Insert(e)
			var got []string
			for _, c := range prog.OnEdge(ctx, e) {
				got = append(got, fmt.Sprintf("%d>%d", c.User, c.Item))
			}
			sort.Strings(got)
			want := oracle.onEdge(e)
			if len(got) != len(want) {
				t.Fatalf("trial %d event %d (%v, k=%d w=%v):\n got %v\nwant %v",
					trial, i, e, k, window, got, want)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("trial %d event %d: got %v want %v", trial, i, got, want)
				}
			}
		}
	}
}

// TestChainAgainstOracle is TestDiamondAgainstOracle for the expand path:
// depth-2 and depth-3 chain plans, with no fanout or expansion cap, against
// the brute-force oracle's hop-by-hop closure over random worlds.
func TestChainAgainstOracle(t *testing.T) {
	r := rand.New(rand.NewSource(20140902))
	emitted := 0
	for trial := 0; trial < 30; trial++ {
		users := 5 + r.Intn(20)
		k := 2 + r.Intn(2)
		hops := 2 + trial%2
		window := time.Duration(1+r.Intn(10)) * time.Minute

		var static []graph.Edge
		for a := 0; a < users; a++ {
			for j := r.Intn(6); j > 0; j-- {
				if b := r.Intn(users); b != a {
					static = append(static, graph.Edge{Src: graph.VertexID(a), Dst: graph.VertexID(b)})
				}
			}
		}
		oracle := newRefDetector(k, window, static)
		oracle.hops = hops
		b := &statstore.Builder{}
		ctx := &Context{
			S:       statstore.New(b.Build(static)),
			D:       dynstore.New(dynstore.Options{Retention: window}),
			Follows: func(a, c graph.VertexID) bool { return oracle.follows[a][c] },
		}
		prog, err := NewPlannedProgram("chain", PlanOps(windowsOf(window), k, 0, make([]int, hops-1), 0))
		if err != nil {
			t.Fatal(err)
		}

		now := int64(1_000_000)
		for i := 0; i < 300; i++ {
			now += int64(r.Intn(60_000))
			e := graph.Edge{
				Src:  graph.VertexID(r.Intn(users)),
				Dst:  graph.VertexID(r.Intn(users/2 + 1)), // concentrated, so motifs form
				Type: graph.Follow,
				TS:   now,
			}
			if e.Src == e.Dst {
				continue
			}
			ctx.D.Insert(e)
			var got []string
			for _, c := range prog.OnEdge(ctx, e) {
				got = append(got, fmt.Sprintf("%d>%d", c.User, c.Item))
			}
			sort.Strings(got)
			if want := oracle.onEdge(e); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d event %d (%v, k=%d hops=%d w=%v):\n got %v\nwant %v",
					trial, i, e, k, hops, window, got, want)
			}
			emitted += len(got)
		}
	}
	if emitted == 0 {
		t.Fatal("vacuous run: no chain completed")
	}
}
