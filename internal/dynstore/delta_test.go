package dynstore

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"

	"motifstream/internal/graph"
)

func deltaTestStore() *Store {
	return New(Options{Retention: time.Hour, Shards: 4})
}

func TestCaptureDeltaTracksOnlyDirtiedTargets(t *testing.T) {
	s := deltaTestStore()
	t0 := int64(1_000_000)
	for i := 0; i < 100; i++ {
		s.Insert(graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i % 10), TS: t0 + int64(i)})
	}
	first := s.CaptureDelta()
	if first.Len() != 10 {
		t.Fatalf("first delta carries %d targets, want 10", first.Len())
	}
	// Nothing dirtied since: the next delta is empty.
	if d := s.CaptureDelta(); d.Len() != 0 {
		t.Fatalf("idle delta carries %d targets", d.Len())
	}
	// One more insert dirties exactly one target.
	s.Insert(graph.Edge{Src: 999, Dst: 3, TS: t0 + 200})
	d := s.CaptureDelta()
	if d.Len() != 1 {
		t.Fatalf("delta after one insert carries %d targets", d.Len())
	}
	if _, ok := d.Targets[3]; !ok {
		t.Fatalf("delta missing dirtied target 3: %v", d.Targets)
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
	list, ok := d.Targets[7]
	if !ok {
		t.Fatalf("sweep deletion not dirtied: %v", d.Targets)
	}
	if len(list) != 0 {
		t.Fatalf("deleted target carries %d entries", len(list))
	}
}

func TestDeltaCodecRoundTrip(t *testing.T) {
	s := deltaTestStore()
	t0 := int64(1_000_000)
	for i := 0; i < 50; i++ {
		s.Insert(graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i % 5), TS: t0 + int64(i)})
	}
	d := s.CaptureDelta()
	var buf bytes.Buffer
	n, err := d.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, m, err := DecodeDelta(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if m != n {
		t.Fatalf("DecodeDelta consumed %d bytes, want %d", m, n)
	}
	if !reflect.DeepEqual(got.Targets, d.Targets) {
		t.Fatalf("round trip diverged:\n got %v\nwant %v", got.Targets, d.Targets)
	}
}

func TestDeltaDecodeRejectsCorruptInput(t *testing.T) {
	s := deltaTestStore()
	for i := 0; i < 20; i++ {
		s.Insert(graph.Edge{Src: graph.VertexID(i), Dst: 1, TS: int64(1_000_000 + i)})
	}
	var buf bytes.Buffer
	if _, err := s.CaptureDelta().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, _, err := DecodeDelta(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Fatal("truncated delta accepted")
	}
	bad := append([]byte{}, data...)
	bad[0] ^= 0xff
	if _, _, err := DecodeDelta(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// TestDeltaComposeEqualsFullSnapshot pins the composition law the restore
// path depends on: base-capture + applied deltas == later full capture.
func TestDeltaComposeEqualsFullSnapshot(t *testing.T) {
	s := deltaTestStore()
	t0 := int64(1_000_000)
	apply := func(from, to int) {
		for i := from; i < to; i++ {
			s.Insert(graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i % 13), TS: t0 + int64(i)*1000})
		}
	}
	apply(0, 200)
	base := s.CaptureSnapshot()
	s.CaptureDelta() // start the chain at the base
	apply(200, 300)
	d1 := s.CaptureDelta()
	apply(300, 400)
	// A sweep mid-chain exercises deletion frames.
	s.Sweep(t0 + 400*1000 + time.Hour.Milliseconds()/2)
	d2 := s.CaptureDelta()

	d1.ApplyTo(base)
	d2.ApplyTo(base)
	want := s.CaptureSnapshot()
	if !reflect.DeepEqual(base, want) {
		t.Fatalf("composed base+deltas diverged from full snapshot:\n got %d targets\nwant %d targets", len(base), len(want))
	}

	// And the composed map loads into a store that captures identically.
	restored := deltaTestStore()
	restored.LoadSnapshot(base)
	if got := restored.CaptureSnapshot(); !reflect.DeepEqual(got, want) {
		t.Fatal("LoadSnapshot of composed state diverged from original store")
	}
	if gotSt, wantSt := restored.Stats(), s.Stats(); gotSt != wantSt {
		t.Fatalf("restored stats %+v != original %+v", gotSt, wantSt)
	}
}

// TestCaptureDeltaAllocBudget gates the cut's allocation count: the map,
// one array shared by every copied list and a fresh dirty set per shard,
// whether the cut carries two hundred targets or two thousand. One
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
		if d.Len() != targets {
			t.Fatalf("cut carries %d targets, want %d", d.Len(), targets)
		}
		if got := after.Mallocs - before.Mallocs; got > 24 {
			t.Errorf("CaptureDelta of %d targets allocates %d times, budget 24", targets, got)
		}
	}
}
