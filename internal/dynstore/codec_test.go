package dynstore

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"motifstream/internal/codecutil"
	"motifstream/internal/graph"
)

// randomStore builds a store from a random near-ordered stream, mirroring
// how D is populated in production: arrival-ordered inserts with lazy
// pruning and per-target caps.
func randomStore(r *rand.Rand, opts Options, shards, events int) *Store {
	s := newStore(opts, shards)
	ts := int64(1_000_000)
	for i := 0; i < events; i++ {
		ts += int64(r.Intn(50))
		e := graph.Edge{
			Src: graph.VertexID(r.Intn(200)),
			Dst: graph.VertexID(r.Intn(80)),
			TS:  ts - int64(r.Intn(20)), // occasional out-of-order straggler
		}
		s.Insert(e)
	}
	return s
}

// decodeSnapshot parses a whole snapshot the way the restore path does:
// into a run, no store touched.
func decodeSnapshot(data []byte) (Targets, error) {
	c := codecutil.NewCursor(data, "dynstore")
	targets := DecodeTargetsAt(c, false)
	return targets, c.Done()
}

// restore replaces s's contents with the snapshot in data: decode whole,
// then install. A snapshot that fails to decode installs nothing.
func restore(s *Store, data []byte) error {
	targets, err := decodeSnapshot(data)
	if err != nil {
		return err
	}
	s.LoadSnapshot(targets)
	return nil
}

// mapOf returns a run as a map; the lists are shared.
func mapOf(t Targets) map[graph.VertexID][]InEdge {
	out := make(map[graph.VertexID][]InEdge, len(t))
	for _, e := range t {
		out[e.Key] = e.Val
	}
	return out
}

// storeContents extracts every retained target list for deep comparison.
func storeContents(s *Store) map[graph.VertexID][]InEdge {
	out := map[graph.VertexID][]InEdge{}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for j, p := range sh.spans {
			if p.N > 0 {
				out[sh.keys[j]] = slices.Clone(sh.list(sh.keys[j]))
			}
		}
		sh.mu.RUnlock()
	}
	return out
}

func TestSnapshotRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		opts := Options{
			Retention:    time.Duration(1+r.Intn(600)) * time.Second,
			MaxPerTarget: []int{0, 4, 64}[r.Intn(3)],
		}
		shards := []int{shardCount, 1, 8}[r.Intn(3)]
		orig := randomStore(r, opts, shards, 1+r.Intn(3_000))

		var buf bytes.Buffer
		buf.Write(orig.AppendSnapshot(nil))

		// Restore into a store with a different shard layout: the format
		// must be layout-independent.
		restored := newStore(opts, 16)
		if err := restore(restored, buf.Bytes()); err != nil {
			t.Fatalf("trial %d: restore: %v", trial, err)
		}

		// Stats deep-equal.
		if got, want := restored.Stats(), orig.Stats(); got != want {
			t.Fatalf("trial %d: stats %+v != %+v", trial, got, want)
		}
		// Full contents deep-equal, including per-target arrival order.
		if got, want := storeContents(restored), storeContents(orig); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: contents diverge", trial)
		}
		// Query results deep-equal at a few probe points.
		for c := graph.VertexID(0); c < 80; c += 7 {
			for _, since := range []int64{0, 1_000_000, 1_030_000} {
				got := recent(restored, c, since)
				want := recent(orig, c, since)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: Recent(%d,%d) = %v, want %v", trial, c, since, got, want)
				}
			}
		}
	}
}

func TestSnapshotRoundTripEmptyStore(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(New(Options{}).AppendSnapshot(nil))
	restored := New(Options{})
	if err := restore(restored, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if st := restored.Stats(); st.Edges != 0 || st.Targets != 0 {
		t.Fatalf("restored empty store has %+v", st)
	}
}

func TestSnapshotReadFromReplacesContents(t *testing.T) {
	a := New(Options{})
	a.Insert(graph.Edge{Src: 1, Dst: 2, TS: 10})
	var buf bytes.Buffer
	buf.Write(a.AppendSnapshot(nil))
	b := New(Options{})
	b.Insert(graph.Edge{Src: 9, Dst: 9, TS: 99}) // pre-existing junk
	if err := restore(b, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if got := recent(b, 9, 0); got != nil {
		t.Fatalf("pre-restore contents survived: %v", got)
	}
	if got := recent(b, 2, 0); len(got) != 1 || got[0].B != 1 {
		t.Fatalf("restored contents wrong: %v", got)
	}
}

func TestSnapshotDecodeRejectsCorruptInput(t *testing.T) {
	s := New(Options{})
	for i := 0; i < 100; i++ {
		s.Insert(graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i % 5), TS: int64(i)})
	}
	var buf bytes.Buffer
	buf.Write(s.AppendSnapshot(nil))
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("XXXXXXXX"), good[8:]...),
		"bad version": func() []byte {
			b := append([]byte(nil), good...)
			b[8] = 0x7f // version 127
			return b
		}(),
		"huge target count": append(append([]byte(nil), good[:9]...),
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
	}
	// Every truncation of the valid snapshot must error, not panic.
	for cut := 0; cut < len(good); cut += 1 + len(good)/37 {
		cases["truncated"] = good[:cut]
		for name, in := range cases {
			fresh := New(Options{})
			if err := restore(fresh, in); err == nil {
				t.Fatalf("%s input (len %d) decoded without error", name, len(in))
			}
			// The contract: a failed decode installs nothing, so the store
			// is never half-populated.
			if st := fresh.Stats(); st.Edges != 0 || st.Targets != 0 {
				t.Fatalf("%s input left partial contents: %+v", name, st)
			}
		}
	}
}

func TestSnapshotDecodeRejectsDuplicateTarget(t *testing.T) {
	// Hand-assemble a snapshot with the same target twice.
	var buf bytes.Buffer
	buf.Write(snapMagic[:])
	buf.WriteByte(snapVersion)
	buf.WriteByte(2) // two targets
	for i := 0; i < 2; i++ {
		buf.WriteByte(7) // target C=7
		buf.WriteByte(1) // one entry
		buf.WriteByte(3) // B=3
		buf.WriteByte(2) // TS delta zigzag(1)
	}
	if _, err := decodeSnapshot(buf.Bytes()); err == nil {
		t.Fatal("duplicate target decoded without error")
	}
}

func TestSnapshotEmbeddedAtCursorPosition(t *testing.T) {
	// Containers (the engine and partition checkpoints) put a snapshot last
	// in their payload and hand the decoder their cursor: it starts where
	// the cursor stands, verifies its own trailer over its own range, and
	// leaves the cursor exhausted. Bytes after a snapshot are corruption,
	// not a second section.
	s := New(Options{})
	s.Insert(graph.Edge{Src: 1, Dst: 2, TS: 5})
	var buf bytes.Buffer
	buf.WriteString("HEADER")
	buf.Write(s.AppendSnapshot(nil))

	c := codecutil.NewCursor(buf.Bytes(), "container")
	for range "HEADER" {
		c.Byte("header")
	}
	targets := DecodeTargetsAt(c, false)
	if err := c.Done(); err != nil {
		t.Fatal(err)
	}
	if want := storeContents(s); !reflect.DeepEqual(mapOf(targets), want) {
		t.Fatalf("embedded snapshot decoded to %v, want %v", targets, want)
	}

	buf.WriteString("TRAILER")
	if _, err := decodeSnapshot(buf.Bytes()[len("HEADER"):]); err == nil {
		t.Fatal("snapshot with trailing bytes decoded without error")
	}
}

func TestResetDropsEverything(t *testing.T) {
	s := New(Options{})
	for i := 0; i < 50; i++ {
		s.Insert(graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i % 3), TS: int64(i)})
	}
	s.Reset()
	if st := s.Stats(); st.Edges != 0 || st.Targets != 0 {
		t.Fatalf("Reset left %+v", st)
	}
	// The store stays usable.
	s.Insert(graph.Edge{Src: 1, Dst: 2, TS: 100})
	if len(recent(s, 2, 0)) != 1 {
		t.Fatal("store unusable after Reset")
	}
}

// TestSnapshotPrefixesAndBitFlipsRejected is the exhaustive companion of
// FuzzSnapshotDecode: no strict prefix and no single-bit flip of a valid
// snapshot decodes, and a failed decode installs nothing. The CRC32C
// is checked over the whole buffer before a frame is parsed and detects
// every single-bit error, so the bit-flip half is exact.
func TestSnapshotPrefixesAndBitFlipsRejected(t *testing.T) {
	src := randomStore(rand.New(rand.NewSource(5)), Options{Retention: time.Hour}, shardCount, 60)
	var buf bytes.Buffer
	buf.Write(src.AppendSnapshot(nil))
	data := buf.Bytes()
	s := New(Options{})
	rejected := func(what string, n int, input []byte) {
		t.Helper()
		if err := restore(s, input); err == nil {
			t.Fatalf("%s %d of a %d-byte snapshot decoded", what, n, len(data))
		}
		if st := s.Stats(); st.Edges != 0 {
			t.Fatalf("%s %d: failed restore left %+v", what, n, st)
		}
	}
	for cut := 0; cut < len(data); cut++ {
		rejected("prefix", cut, data[:cut])
	}
	mut := bytes.Clone(data)
	for bit := 0; bit < 8*len(data); bit++ {
		mut[bit/8] ^= 1 << (bit % 8)
		rejected("bit flip", bit, mut)
		mut[bit/8] ^= 1 << (bit % 8)
	}
	if err := restore(s, data); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
}

// FuzzSnapshotDecode throws arbitrary bytes at the decoder; the only
// acceptable outcomes are a clean error or a successful decode that
// re-encodes losslessly.
func FuzzSnapshotDecode(f *testing.F) {
	seed := New(Options{})
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		seed.Insert(graph.Edge{
			Src: graph.VertexID(r.Intn(100)),
			Dst: graph.VertexID(r.Intn(30)),
			TS:  int64(i),
		})
	}
	var valid bytes.Buffer
	valid.Write(seed.AppendSnapshot(nil))
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add(snapMagic[:])
	f.Add(valid.Bytes()[:valid.Len()/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		s := New(Options{})
		if restore(s, data) != nil {
			return
		}
		// Decoded successfully: encoding the result must round-trip.
		var buf bytes.Buffer
		buf.Write(s.AppendSnapshot(nil))
		again := New(Options{})
		if err := restore(again, buf.Bytes()); err != nil {
			t.Fatalf("decode of re-encoded store failed: %v", err)
		}
		if again.Stats() != s.Stats() {
			t.Fatalf("re-encode changed stats: %+v != %+v", again.Stats(), s.Stats())
		}
	})
}
