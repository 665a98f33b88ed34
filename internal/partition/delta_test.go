package partition

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"motifstream/internal/codecutil"
	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
)

// deltaWorkloadPartition builds a single-partition setup where users 10
// and 11 both follow targets, so diamonds complete and the candidate log
// and item counters fill alongside D.
func deltaWorkloadPartition(t testing.TB) *Partition {
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

func applyDiamonds(p *Partition, t0 int64, from, to int) {
	for i := from; i < to; i++ {
		item := graph.VertexID(10_000 + i)
		p.Apply(graph.Edge{Src: 10, Dst: item, Type: graph.Follow, TS: t0 + int64(i)*10})
		p.Apply(graph.Edge{Src: 11, Dst: item, Type: graph.Follow, TS: t0 + int64(i)*10 + 1})
	}
}

// fingerprint is a live partition's state fingerprint (its base's trailer).
func fingerprint(p *Partition) uint32 { return FingerprintOf(p.AppendBase(nil)) }

// ParseDelta parses a whole delta segment file written by AppendDelta,
// walked whole before it is decoded, as DecodeBase parses a base: a corrupt
// one returns an error and leaves whatever it would have been merged into
// exactly as it was.
func ParseDelta(data []byte, names *codecutil.Strings) (*Segment, error) {
	s, err := walk(data, false)
	if err != nil {
		return nil, err
	}
	return s.decode(names), nil
}

// applyDelta decodes one delta segment file and folds it onto base — the
// restore path's composition step. A segment that does not decode folds
// nothing: base comes back as it was.
func applyDelta(base *Segment, data []byte) (*Segment, error) {
	d, err := ParseDelta(data, nil)
	if err != nil {
		return base, err
	}
	return Merge(true, base, d), nil
}

// TestDeltaComposeMatchesFullState pins the composition law the whole
// recovery pipeline rests on: a base capture plus encoded-and-decoded
// delta segments applied in cut order equals a later full capture.
func TestDeltaComposeMatchesFullState(t *testing.T) {
	p := deltaWorkloadPartition(t)
	t0 := int64(10_000_000)

	applyDiamonds(p, t0, 0, 30)
	base := snapshot(t, p)
	p.CaptureDelta() // align the chain start with the base

	var segments [][]byte
	cut := func() {
		var buf bytes.Buffer
		d := p.CaptureDelta()
		n, err := d.WriteTo(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
		}
		segments = append(segments, buf.Bytes())
	}
	applyDiamonds(p, t0, 30, 50)
	cut()
	applyDiamonds(p, t0, 50, 70)
	cut()

	for _, seg := range segments {
		var err error
		if base, err = applyDelta(base, seg); err != nil {
			t.Fatal(err)
		}
	}
	want := snapshot(t, p)
	if !statesEqual(base, want) {
		t.Fatal("composed base+deltas diverged from full capture")
	}

	// The composed state round-trips through the base codec and installs
	// into a fresh partition that captures identically.
	decoded, err := DecodeBase(baseBytes(t, base), nil)
	if err != nil {
		t.Fatal(err)
	}
	restored := deltaWorkloadPartition(t)
	restored.LoadState(decoded)
	if got := snapshot(t, restored); !statesEqual(got, want) {
		t.Fatal("restored partition diverged from original")
	}
}

// TestFingerprintDistinguishesStates pins the half of the equality-witness
// claim that an all-states-equal fingerprint would still pass: states that
// differ by a single D edge, a single logged candidate, or a single item
// counter fingerprint differently — in the composed (Segment) form
// and streamed from a live Partition alike. (Hashing the base encoding
// together with its own CRC trailer made every state fingerprint to the
// CRC residue constant; this is the test that fails there.)
func TestFingerprintDistinguishesStates(t *testing.T) {
	t0 := int64(10_000_000)
	build := func() *Partition {
		p := deltaWorkloadPartition(t)
		applyDiamonds(p, t0, 0, 20)
		return p
	}
	base := snapshot(t, build())
	// An item and a user that applyDiamonds(0, 20) certainly touched.
	item := graph.VertexID(10_000)
	if len(base.Users) == 0 || find(base.Targets, item) == nil || find(base.Items, item) == nil {
		t.Fatalf("workload did not populate D (%d targets), the candidate log (%d users) and item counters (%d)",
			len(base.Targets), len(base.Users), len(base.Items))
	}
	user := base.Users[0].Key
	variants := map[string]func(st *Segment){
		"identical": func(*Segment) {},
		"one D edge": func(st *Segment) {
			list := find(st.Targets, item)
			*list = (*list)[:len(*list)-1]
		},
		"one candidate": func(st *Segment) {
			list := find(st.Users, user)
			*list = (*list)[:len(*list)-1]
		},
		"one item counter": func(st *Segment) { *find(st.Items, item)++ },
		"sweep clock":      func(st *Segment) { st.SweepClock++ },
	}
	seen := map[uint32]string{}
	for name, mutate := range variants {
		st := snapshot(t, build())
		mutate(st)
		fp := st.Fingerprint()
		// The live form must agree with the composed form for the same
		// state, and so distinguish exactly the same variants.
		live := deltaWorkloadPartition(t)
		live.LoadState(st)
		if liveFP := fingerprint(live); liveFP != fp {
			t.Fatalf("%s: live fingerprint %08x != composed %08x", name, liveFP, fp)
		}
		if other, dup := seen[fp]; dup {
			t.Fatalf("states %q and %q share fingerprint %08x", name, other, fp)
		}
		seen[fp] = name
	}
	want := base.Fingerprint()
	if seen[want] != "identical" {
		t.Fatalf("rebuilding the same state fingerprints to %q's value, not its own", seen[want])
	}
}

// TestComposePathsFingerprintEqual is the determinism property the audit
// layer rests on: for a randomized workload with random cut points, every
// way the cluster can arrive at a replica's state —
// composing the replica's own base+delta chain, installing a pool base
// (the full state round-tripped through the base codec, i.e. what a
// mirror push ships), or deterministically replaying the edges from
// scratch — yields a state that is statesEqual to the live capture AND
// has the identical CRC32C fingerprint. It also pins the file-trailer
// law: the fingerprint of a state equals the CRC32C trailer closing its
// base encoding (the checksum of the payload before it), which is what
// lets the elastic go-live gate audit a pool base without decoding it.
func TestComposePathsFingerprintEqual(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1337} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			t0 := int64(10_000_000)

			// Script a random workload up front so the live run and the
			// replay run execute the exact same operation sequence:
			// apply-bursts separated by delta cuts.
			type step struct{ from, to int }
			var steps []step
			pos := 20 // the base capture covers [0, 20)
			for i := 0; i < 4+rng.Intn(4); i++ {
				n := 5 + rng.Intn(30)
				steps = append(steps, step{from: pos, to: pos + n})
				pos += n
			}

			// Live run: capture a base, then cut one delta per step.
			live := deltaWorkloadPartition(t)
			applyDiamonds(live, t0, 0, 20)
			base := snapshot(t, live)
			live.CaptureDelta() // align the chain start with the base
			var segs [][]byte
			for _, s := range steps {
				applyDiamonds(live, t0, s.from, s.to)
				var buf bytes.Buffer
				if _, err := live.CaptureDelta().WriteTo(&buf); err != nil {
					t.Fatal(err)
				}
				segs = append(segs, buf.Bytes())
			}
			want := snapshot(t, live)
			wantFP := want.Fingerprint()
			liveFP := fingerprint(live)
			if liveFP != wantFP {
				t.Fatalf("live partition fingerprint %08x != captured state %08x", liveFP, wantFP)
			}

			// Path 1: compose the replica's own chain.
			chain := base
			var err error
			for _, seg := range segs {
				if chain, err = applyDelta(chain, seg); err != nil {
					t.Fatal(err)
				}
			}
			if !statesEqual(chain, want) {
				t.Fatal("own-chain composition diverged from live capture")
			}
			if fp := chain.Fingerprint(); fp != wantFP {
				t.Fatalf("own-chain fingerprint %08x, want %08x", fp, wantFP)
			}

			// Path 2: the pool base — the state round-tripped through the
			// base codec, as a mirror push ships it. The file-trailer law:
			// the file's last four bytes — the CRC32C of the payload
			// before them — ARE the fingerprint.
			var file bytes.Buffer
			file.Write(want.AppendBase(nil))
			payload, trailer := file.Bytes()[:file.Len()-4], file.Bytes()[file.Len()-4:]
			if crc := codecutil.CRC32C(payload); crc != wantFP || binary.LittleEndian.Uint32(trailer) != wantFP {
				t.Fatalf("payload CRC %08x / trailer %08x != state fingerprint %08x",
					crc, binary.LittleEndian.Uint32(trailer), wantFP)
			}
			pool, err := DecodeBase(file.Bytes(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !statesEqual(pool, want) {
				t.Fatal("pool-base round trip diverged from live capture")
			}
			if fp := pool.Fingerprint(); fp != wantFP {
				t.Fatalf("pool-base fingerprint %08x, want %08x", fp, wantFP)
			}

			// Path 3: deterministic replay from scratch — same edges, fresh
			// partition.
			replay := deltaWorkloadPartition(t)
			applyDiamonds(replay, t0, 0, 20)
			replay.CaptureDelta()
			for _, s := range steps {
				applyDiamonds(replay, t0, s.from, s.to)
				replay.CaptureDelta()
			}
			got := snapshot(t, replay)
			if !statesEqual(got, want) {
				t.Fatal("deterministic replay diverged from live capture")
			}
			if fp := got.Fingerprint(); fp != wantFP {
				t.Fatalf("replay fingerprint %08x, want %08x", fp, wantFP)
			}
		})
	}
}

// TestDeltaCorruptSegmentLeavesStateUntouched pins the fallback contract:
// a corrupt segment must fail without mutating the composed state, so the
// restore path can stop at the previous segment.
func TestDeltaCorruptSegmentLeavesStateUntouched(t *testing.T) {
	p := deltaWorkloadPartition(t)
	t0 := int64(10_000_000)
	applyDiamonds(p, t0, 0, 20)
	st := snapshot(t, p)
	p.CaptureDelta()
	applyDiamonds(p, t0, 20, 40)
	var buf bytes.Buffer
	if _, err := p.CaptureDelta().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()/2]

	before, err := DecodeBase(baseBytes(t, st), nil)
	if err != nil {
		t.Fatal(err)
	}

	got, err := applyDelta(st, truncated)
	if err == nil {
		t.Fatal("corrupt segment accepted")
	}
	if got != st || !statesEqual(st, before) {
		t.Fatal("corrupt segment mutated the composed state")
	}
}

// TestDeltaCutPauseBounded is the acceptance check for the incremental
// pipeline: with a large store and a small dirty set, a delta cut must be
// at least 5x cheaper than what a full cut would cost now — the live full
// encode (in practice it is orders of magnitude cheaper; 5x keeps the test
// robust on loaded CI machines).
func TestDeltaCutPauseBounded(t *testing.T) {
	p := deltaWorkloadPartition(t)
	t0 := int64(10_000_000)
	// ~50k dirty-free targets in D after the drain below.
	applyDiamonds(p, t0, 0, 25_000)
	p.CaptureDelta()

	minOver := func(runs int, fn func()) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < runs; i++ {
			start := time.Now()
			fn()
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}

	full := minOver(5, func() {
		p.AppendBase(nil)
	})

	// Dirty a handful of targets before each run and time only the cut.
	dirt := 25_000
	delta := time.Duration(1<<63 - 1)
	for i := 0; i < 5; i++ {
		applyDiamonds(p, t0, dirt, dirt+8)
		dirt += 8
		start := time.Now()
		if d := p.CaptureDelta(); d.Len() == 0 {
			t.Fatal("vacuous: delta captured nothing")
		}
		if e := time.Since(start); e < delta {
			delta = e
		}
	}

	t.Logf("full cut pause %v, delta cut pause %v (%.0fx)", full, delta, float64(full)/float64(delta))
	if full < 5*delta {
		t.Fatalf("delta cut pause %v not ≥5x smaller than full cut %v", delta, full)
	}
}
