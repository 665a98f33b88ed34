package core

import (
	"bytes"
	"testing"
	"time"

	"motifstream/internal/codecutil"
	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
	"motifstream/internal/statstore"
)

func newCheckpointEngine(t *testing.T) *Engine {
	t.Helper()
	b := &statstore.Builder{}
	snap := b.Build([]graph.Edge{{Src: 1, Dst: 10}, {Src: 2, Dst: 10}})
	e, err := NewEngine(Config{
		Static:   statstore.New(snap),
		Dynamic:  dynstore.New(dynstore.Options{Retention: time.Hour}),
		Programs: []motif.Program{motif.NewDiamond(motif.DiamondConfig{K: 2, Window: time.Hour})},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// restore replaces e's recoverable state with the engine checkpoint in
// data, the way the restore path does: decode whole, then install. A failed
// decode leaves the engine as it was.
func restore(e *Engine, data []byte) error {
	c := codecutil.NewCursor(data, "core")
	sweepClock, spans := WalkEngineStateAt(c)
	if err := c.Done(); err != nil {
		return err
	}
	e.LoadState(sweepClock, dynstore.DecodeTargets(spans))
	return nil
}

func TestEngineCheckpointRoundTrip(t *testing.T) {
	orig := newCheckpointEngine(t)
	t0 := int64(10_000_000)
	for i := 0; i < 200; i++ {
		orig.Apply(graph.Edge{
			Src: graph.VertexID(10 + i%5),
			Dst: graph.VertexID(500 + i%7),
			TS:  t0 + int64(i)*1_000,
		})
	}

	var buf bytes.Buffer
	buf.Write(orig.AppendState(nil))

	restored := newCheckpointEngine(t)
	if err := restore(restored, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Dynamic().Stats(), orig.Dynamic().Stats(); got != want {
		t.Fatalf("restored D stats %+v != %+v", got, want)
	}
	gotSweep, wantSweep := restored.SweepClock(), orig.SweepClock()
	if gotSweep != wantSweep {
		t.Fatalf("restored sweep clock %d != %d", gotSweep, wantSweep)
	}
}

// TestEngineCheckpointSweepEquivalence is the sweep-cadence property the
// oracle suite depends on: continuing a restored engine over the stream
// suffix yields the same D store as the uninterrupted engine, because the
// sweep clock survives the checkpoint.
func TestEngineCheckpointSweepEquivalence(t *testing.T) {
	stream := make([]graph.Edge, 3_000)
	t0 := int64(10_000_000)
	for i := range stream {
		stream[i] = graph.Edge{
			Src: graph.VertexID(10 + i%13),
			Dst: graph.VertexID(500 + i%31),
			TS:  t0 + int64(i)*2_500, // crosses many sweep intervals
		}
	}
	cut := len(stream) / 3

	straight := newCheckpointEngine(t)
	for _, e := range stream {
		straight.Apply(e)
	}

	first := newCheckpointEngine(t)
	for _, e := range stream[:cut] {
		first.Apply(e)
	}
	var buf bytes.Buffer
	buf.Write(first.AppendState(nil))
	resumed := newCheckpointEngine(t)
	if err := restore(resumed, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	for _, e := range stream[cut:] {
		resumed.Apply(e)
	}

	if got, want := resumed.Dynamic().Stats(), straight.Dynamic().Stats(); got != want {
		t.Fatalf("resumed D stats %+v != straight %+v", got, want)
	}
}

func TestEngineCheckpointRejectsCorruptInput(t *testing.T) {
	e := newCheckpointEngine(t)
	e.Apply(graph.Edge{Src: 10, Dst: 500, TS: 1_000_000})
	var buf bytes.Buffer
	buf.Write(e.AppendState(nil))
	good := buf.Bytes()
	for _, bad := range [][]byte{
		{},
		[]byte("NOTMAGIC"),
		good[:5],
		good[:len(good)-3],
	} {
		fresh := newCheckpointEngine(t)
		if err := restore(fresh, bad); err == nil {
			t.Fatalf("corrupt input of len %d decoded without error", len(bad))
		}
	}
}

func TestEngineReset(t *testing.T) {
	e := newCheckpointEngine(t)
	e.Apply(graph.Edge{Src: 10, Dst: 500, TS: 10_000_000})
	e.Reset()
	if st := e.Dynamic().Stats(); st.Edges != 0 {
		t.Fatalf("Reset left D with %+v", st)
	}
	if got := e.SweepClock(); got != 0 {
		t.Fatalf("Reset left sweep clock at %d", got)
	}
}
