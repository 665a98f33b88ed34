package partition

import (
	"bytes"
	"cmp"
	"reflect"
	"slices"
	"testing"

	"motifstream/internal/codecutil"
	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
)

// mapState is the map-of-lists form checkpoints had in memory before a
// segment was a sorted run. The tests keep it for two jobs: fixtures are
// written as map literals, and applyDelta — the last-write-wins fold the
// restore path used to run — is the oracle the run merge is held against.
type mapState struct {
	SweepClock int64
	Users      map[graph.VertexID][]motif.Candidate
	Items      map[graph.VertexID]uint64
	Targets    map[graph.VertexID][]dynstore.InEdge
}

func newMapState() *mapState {
	return &mapState{
		Users:   make(map[graph.VertexID][]motif.Candidate),
		Items:   make(map[graph.VertexID]uint64),
		Targets: make(map[graph.VertexID][]dynstore.InEdge),
	}
}

// applyDelta folds one delta into a base state: each carried key replaces
// the state's entry, and an empty list deletes it.
func (st *mapState) applyDelta(d *mapState) {
	st.SweepClock = d.SweepClock
	for a, list := range d.Users {
		if len(list) == 0 {
			delete(st.Users, a)
		} else {
			st.Users[a] = list
		}
	}
	for it, count := range d.Items {
		st.Items[it] = count
	}
	for c, list := range d.Targets {
		if len(list) == 0 {
			delete(st.Targets, c)
		} else {
			st.Targets[c] = list
		}
	}
}

// segment returns the state as sealed runs.
func (st *mapState) segment() *Segment {
	return &Segment{SweepClock: st.SweepClock, Users: liveRun(st.Users), Items: liveRun(st.Items), Targets: liveRun(st.Targets)}
}

// find returns a pointer to key's value in a sealed run, nil when absent.
func find[V any](r codecutil.Run[graph.VertexID, V], key graph.VertexID) *V {
	i, ok := slices.BinarySearchFunc(r, key, func(e codecutil.Entry[graph.VertexID, V], k graph.VertexID) int {
		return cmp.Compare(e.Key, k)
	})
	if !ok {
		return nil
	}
	return &r[i].Val
}

func runsEqual[V any](a, b codecutil.Run[graph.VertexID, V], eq func(V, V) bool) bool {
	return slices.EqualFunc(a, b, func(x, y codecutil.Entry[graph.VertexID, V]) bool {
		return x.Key == y.Key && eq(x.Val, y.Val)
	})
}

func candidatesEqual(a, b []motif.Candidate) bool {
	return slices.EqualFunc(a, b, func(x, y motif.Candidate) bool {
		if !slices.Equal(x.Via, y.Via) {
			return false
		}
		x.Via, y.Via = nil, nil
		return reflect.DeepEqual(x, y)
	})
}

// statesEqual compares two segments key by key and value by value, with a
// nil list equal to an empty one (a decoder's arena hands out nil for a
// zero-length list).
func statesEqual(a, b *Segment) bool {
	a.seal()
	b.seal()
	return a.SweepClock == b.SweepClock &&
		runsEqual(a.Users, b.Users, candidatesEqual) &&
		runsEqual(a.Items, b.Items, func(x, y uint64) bool { return x == y }) &&
		runsEqual(a.Targets, b.Targets, slices.Equal[[]dynstore.InEdge])
}

// snapshot returns the partition's full recoverable state through the one
// encoder and the one decoder: the live streaming WriteTo, then DecodeBase.
func snapshot(t testing.TB, p *Partition) *Segment {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(p.AppendBase(nil))
	s, err := DecodeBase(buf.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// baseBytes returns the segment's base encoding.
func baseBytes(t testing.TB, s *Segment) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(s.AppendBase(nil))
	return buf.Bytes()
}
