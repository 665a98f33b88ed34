package dynstore

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"

	"motifstream/internal/codecutil"
	"motifstream/internal/graph"
)

func deltaTestStore() *Store {
	return newStore(Options{Retention: time.Hour}, 4)
}

// decodeDelta parses a whole delta section into a run.
func decodeDelta(data []byte) (Targets, error) {
	c := codecutil.NewCursor(data, "dynstore delta")
	d := DecodeTargetsAt(c, true)
	return d, c.Done()
}

// capture returns the store's full contents through the one encoder and the
// one decoder: the live streaming WriteTo, then a snapshot decode.
func capture(t *testing.T, s *Store) Targets {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(s.AppendSnapshot(nil))
	targets, err := decodeSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return targets
}

func noEdges(list []InEdge) bool { return len(list) == 0 }

func TestCaptureDeltaTracksOnlyDirtiedTargets(t *testing.T) {
	s := deltaTestStore()
	t0 := int64(1_000_000)
	for i := 0; i < 100; i++ {
		s.Insert(graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i % 10), TS: t0 + int64(i)})
	}
	first := s.CaptureDelta()
	if len(first) != 10 {
		t.Fatalf("first delta carries %d targets, want 10", len(first))
	}
	// Nothing dirtied since: the next delta is empty.
	if d := s.CaptureDelta(); len(d) != 0 {
		t.Fatalf("idle delta carries %d targets", len(d))
	}
	// One more insert dirties exactly one target.
	s.Insert(graph.Edge{Src: 999, Dst: 3, TS: t0 + 200})
	d := s.CaptureDelta()
	if len(d) != 1 {
		t.Fatalf("delta after one insert carries %d targets", len(d))
	}
	if _, ok := mapOf(d)[3]; !ok {
		t.Fatalf("delta missing dirtied target 3: %v", d)
	}
}

func TestCaptureDeltaRecordsSweepDeletions(t *testing.T) {
	s := deltaTestStore()
	t0 := int64(1_000_000)
	s.Insert(graph.Edge{Src: 1, Dst: 7, TS: t0})
	s.CaptureDelta() // drain
	// Sweep far past retention: target 7 is deleted and must appear in the
	// next delta as an empty list.
	s.Sweep(t0 + 2*time.Hour.Milliseconds())
	d := s.CaptureDelta()
	list, ok := mapOf(d)[7]
	if !ok {
		t.Fatalf("sweep deletion not dirtied: %v", d)
	}
	if len(list) != 0 {
		t.Fatalf("deleted target carries %d entries", len(list))
	}
}

// TestCaptureDeltaCarriesEachKeyOnce pins the two ways a key could reach
// the dirty log twice between cuts — swept empty and inserted into again,
// and swept empty twice — to one entry: Seal does not deduplicate, and a
// repeated key encodes a segment the decoder rejects as not ascending.
func TestCaptureDeltaCarriesEachKeyOnce(t *testing.T) {
	t0 := int64(1_000_000)
	hour := time.Hour.Milliseconds()
	for _, tc := range []struct {
		name  string
		after func(s *Store)
		want  []InEdge
	}{
		{"swept then reinserted", func(s *Store) {
			s.Sweep(t0 + 2*hour)
			s.Insert(graph.Edge{Src: 2, Dst: 7, TS: t0 + 2*hour})
		}, []InEdge{{B: 2, TS: t0 + 2*hour}}},
		{"swept twice", func(s *Store) {
			s.Sweep(t0 + 2*hour)
			s.Insert(graph.Edge{Src: 2, Dst: 7, TS: t0 + 2*hour})
			s.Sweep(t0 + 4*hour)
		}, nil},
	} {
		s := deltaTestStore()
		s.Insert(graph.Edge{Src: 1, Dst: 7, TS: t0})
		s.CaptureDelta()
		tc.after(s)
		d := s.CaptureDelta()
		if len(d) != 1 || d[0].Key != 7 || !reflect.DeepEqual(d[0].Val, tc.want) {
			t.Fatalf("%s: cut carries %v, want target 7 once with %v", tc.name, d, tc.want)
		}
	}
}

func TestDeltaCodecRoundTrip(t *testing.T) {
	s := deltaTestStore()
	t0 := int64(1_000_000)
	for i := 0; i < 50; i++ {
		s.Insert(graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i % 5), TS: t0 + int64(i)})
	}
	d := s.CaptureDelta()
	d.Seal()
	got, err := decodeDelta(AppendTargets(nil, d, true))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("round trip diverged:\n got %v\nwant %v", got, d)
	}
}

func TestDeltaDecodeRejectsCorruptInput(t *testing.T) {
	s := deltaTestStore()
	for i := 0; i < 20; i++ {
		s.Insert(graph.Edge{Src: graph.VertexID(i), Dst: 1, TS: int64(1_000_000 + i)})
	}
	data := AppendTargets(nil, s.CaptureDelta(), true)
	if _, err := decodeDelta(data); err != nil {
		t.Fatalf("pristine delta rejected: %v", err)
	}
	if _, err := decodeDelta(data[:len(data)/2]); err == nil {
		t.Fatal("truncated delta accepted")
	}
	bad := append([]byte{}, data...)
	bad[0] ^= 0xff
	if _, err := decodeDelta(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// TestDeltaComposeEqualsFullSnapshot pins the composition law the restore
// path depends on: base-capture + merged deltas == later full capture.
func TestDeltaComposeEqualsFullSnapshot(t *testing.T) {
	s := deltaTestStore()
	t0 := int64(1_000_000)
	apply := func(from, to int) {
		for i := from; i < to; i++ {
			s.Insert(graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i % 13), TS: t0 + int64(i)*1000})
		}
	}
	apply(0, 200)
	base := capture(t, s)
	s.CaptureDelta() // start the chain at the base
	apply(200, 300)
	d1 := s.CaptureDelta()
	apply(300, 400)
	// A sweep mid-chain exercises deletion frames.
	s.Sweep(t0 + 400*1000 + time.Hour.Milliseconds()/2)
	d2 := s.CaptureDelta()

	d1.Seal()
	d2.Seal()
	base = codecutil.MergeRuns(noEdges, base, d1, d2)
	want := capture(t, s)
	if !reflect.DeepEqual(base, want) {
		t.Fatalf("composed base+deltas diverged from full snapshot:\n got %d targets\nwant %d targets", len(base), len(want))
	}

	// And the composed run loads into a store that captures identically.
	restored := deltaTestStore()
	restored.LoadSnapshot(base)
	if got := capture(t, restored); !reflect.DeepEqual(got, want) {
		t.Fatal("LoadSnapshot of composed state diverged from original store")
	}
	if gotSt, wantSt := restored.Stats(), s.Stats(); gotSt != wantSt {
		t.Fatalf("restored stats %+v != original %+v", gotSt, wantSt)
	}
}

// TestCaptureDeltaAllocBudget gates the cut's allocation count: the run and
// one array shared by every copied list — the dirty log is emptied in place
// — whether the cut carries two hundred targets or two thousand. One
// allocation per dirty target (the copy this replaced) fails it.
func TestCaptureDeltaAllocBudget(t *testing.T) {
	for _, targets := range []int{200, 2000} {
		s := deltaTestStore()
		for i := 0; i < 3*targets; i++ {
			s.Insert(graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i % targets), TS: int64(1_000_000 + i)})
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d := s.CaptureDelta()
		runtime.ReadMemStats(&after)
		if len(d) != targets {
			t.Fatalf("cut carries %d targets, want %d", len(d), targets)
		}
		if got := after.Mallocs - before.Mallocs; got > 8 {
			t.Errorf("CaptureDelta of %d targets allocates %d times, budget 8", targets, got)
		}
	}
}
