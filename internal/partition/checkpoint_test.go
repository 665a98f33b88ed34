package partition

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
)

func checkpointTestPartition(t *testing.T) *Partition {
	t.Helper()
	static := []graph.Edge{
		{Src: 1, Dst: 10}, {Src: 2, Dst: 10},
		{Src: 2, Dst: 11}, {Src: 3, Dst: 11},
		{Src: 1, Dst: 11},
	}
	p, err := New(Config{
		ID:          0,
		StaticEdges: static,
		Partitioner: NewHashPartitioner(1),
		Dynamic:     dynstore.Options{Retention: time.Hour},
		Programs: []motif.Program{
			motif.NewDiamond(motif.DiamondConfig{K: 2, Window: time.Hour}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// restore replaces p's recoverable state with the base checkpoint in data,
// the way the restore path does: decode whole, then install. A failed
// decode installs nothing.
func restore(p *Partition, data []byte) error {
	s, err := DecodeBase(data, nil)
	if err != nil {
		return err
	}
	p.LoadState(s)
	return nil
}

func TestPartitionCheckpointRoundTrip(t *testing.T) {
	orig := checkpointTestPartition(t)
	t0 := int64(10_000_000)
	for i := 0; i < 40; i++ {
		item := graph.VertexID(900 + i)
		orig.Apply(graph.Edge{Src: 10, Dst: item, Type: graph.Follow, TS: t0 + int64(i)*10})
		orig.Apply(graph.Edge{Src: 11, Dst: item, Type: graph.Follow, TS: t0 + int64(i)*10 + 1})
	}
	if len(orig.RecommendationsFor(2)) == 0 {
		t.Fatal("vacuous: no candidates logged before checkpoint")
	}

	var buf bytes.Buffer
	buf.Write(orig.AppendBase(nil))

	restored := checkpointTestPartition(t)
	if err := restore(restored, buf.Bytes()); err != nil {
		t.Fatal(err)
	}

	// Read path state survives: candidate log...
	for _, a := range []graph.VertexID{1, 2, 3} {
		if got, want := restored.RecommendationsFor(a), orig.RecommendationsFor(a); !reflect.DeepEqual(got, want) {
			t.Fatalf("RecommendationsFor(%d): %v != %v", a, got, want)
		}
	}
	// ...item counters...
	if got, want := restored.TopItems(10), orig.TopItems(10); !reflect.DeepEqual(got, want) {
		t.Fatalf("TopItems: %v != %v", got, want)
	}
	// ...and the engine's D store.
	if got, want := restored.Engine().Dynamic().Stats(), orig.Engine().Dynamic().Stats(); got != want {
		t.Fatalf("D stats %+v != %+v", got, want)
	}

	// The restored partition keeps detecting: a fresh motif completes.
	cands := restored.Apply(graph.Edge{Src: 10, Dst: 5_000, Type: graph.Follow, TS: t0 + 10_000})
	_ = cands
	cands = restored.Apply(graph.Edge{Src: 11, Dst: 5_000, Type: graph.Follow, TS: t0 + 10_001})
	if len(cands) == 0 {
		t.Fatal("restored partition detects nothing")
	}
}

func TestPartitionCheckpointRejectsCorruptInput(t *testing.T) {
	p := checkpointTestPartition(t)
	t0 := int64(10_000_000)
	p.Apply(graph.Edge{Src: 10, Dst: 900, Type: graph.Follow, TS: t0})
	p.Apply(graph.Edge{Src: 11, Dst: 900, Type: graph.Follow, TS: t0 + 1})
	var buf bytes.Buffer
	buf.Write(p.AppendBase(nil))
	good := buf.Bytes()
	for cut := 0; cut < len(good); cut += 1 + len(good)/23 {
		fresh := checkpointTestPartition(t)
		if err := restore(fresh, good[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
	fresh := checkpointTestPartition(t)
	if err := restore(fresh, []byte("BOGUSMAGIC+++")); err == nil {
		t.Fatal("bogus magic decoded without error")
	}
}

// TestCheckpointChecksumDetectsEveryBitFlip flips one byte at every
// position of an encoded base and delta segment: the CRC32C trailer must
// reject each mutation (or the structural decode must), so a corrupted
// base can never silently compose garbage state. This is the unit half of
// the docs/DURABILITY.md base-checksum clause; the cluster-level half
// (restore surfacing the error) lives in internal/cluster.
func TestCheckpointChecksumDetectsEveryBitFlip(t *testing.T) {
	p := checkpointTestPartition(t)
	t0 := int64(10_000_000)
	for i := 0; i < 10; i++ {
		item := graph.VertexID(900 + i)
		p.Apply(graph.Edge{Src: 10, Dst: item, Type: graph.Follow, TS: t0 + int64(i)*10})
		p.Apply(graph.Edge{Src: 11, Dst: item, Type: graph.Follow, TS: t0 + int64(i)*10 + 1})
	}

	var base bytes.Buffer
	base.Write(p.AppendBase(nil))
	delta := p.CaptureDelta()
	var dbuf bytes.Buffer
	if _, err := delta.WriteTo(&dbuf); err != nil {
		t.Fatal(err)
	}

	for pos := 0; pos < base.Len(); pos++ {
		mut := append([]byte(nil), base.Bytes()...)
		mut[pos] ^= 0x40
		fresh := checkpointTestPartition(t)
		if err := restore(fresh, mut); err == nil {
			t.Fatalf("base byte flip at %d/%d decoded without error", pos, base.Len())
		}
	}
	for pos := 0; pos < dbuf.Len(); pos++ {
		mut := append([]byte(nil), dbuf.Bytes()...)
		mut[pos] ^= 0x40
		if _, err := ParseDelta(mut, nil); err == nil {
			t.Fatalf("delta byte flip at %d/%d decoded without error", pos, dbuf.Len())
		}
	}

	// The pristine bytes still round-trip (the trailer is not rejecting
	// everything).
	fresh := checkpointTestPartition(t)
	if err := restore(fresh, base.Bytes()); err != nil {
		t.Fatalf("pristine base rejected: %v", err)
	}
	if _, err := ParseDelta(dbuf.Bytes(), nil); err != nil {
		t.Fatalf("pristine delta rejected: %v", err)
	}
}

func TestPartitionResetDropsRecoverableState(t *testing.T) {
	p := checkpointTestPartition(t)
	t0 := int64(10_000_000)
	p.Apply(graph.Edge{Src: 10, Dst: 900, Type: graph.Follow, TS: t0})
	p.Apply(graph.Edge{Src: 11, Dst: 900, Type: graph.Follow, TS: t0 + 1})
	p.Reset()
	if got := p.RecommendationsFor(2); got != nil {
		t.Fatalf("candidate log survived Reset: %v", got)
	}
	if got := p.TopItems(5); len(got) != 0 {
		t.Fatalf("item counters survived Reset: %v", got)
	}
	if st := p.Engine().Dynamic().Stats(); st.Edges != 0 {
		t.Fatalf("D survived Reset: %+v", st)
	}
	// S is configuration, not stream state: detection still works after
	// the same edges are replayed.
	p.Apply(graph.Edge{Src: 10, Dst: 900, Type: graph.Follow, TS: t0})
	cands := p.Apply(graph.Edge{Src: 11, Dst: 900, Type: graph.Follow, TS: t0 + 1})
	if len(cands) == 0 {
		t.Fatal("replayed motif not re-detected after Reset")
	}
}
