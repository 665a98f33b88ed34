package partition

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"motifstream/internal/codecutil"
	"motifstream/internal/core"
	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
)

// cell is what one segment holds for the key a merge-law row is about.
type cell int

const (
	absent cell = iota
	olderValue
	newerValue
	tombstone
)

// lawSegment builds a segment whose three sections hold c under key 7 (the
// item counters have no tombstone: there the row does not apply and the
// section stays empty) beside a bystander key of its own, so every merge
// also walks keys that are in one segment only.
func lawSegment(c cell, clock int64, bystander graph.VertexID) *Segment {
	st := newMapState()
	st.SweepClock = clock
	st.Users[bystander] = []motif.Candidate{{User: bystander, Item: 1}}
	st.Items[bystander] = 1
	st.Targets[bystander] = []dynstore.InEdge{{B: 1, TS: clock}}
	switch c {
	case olderValue, newerValue:
		st.Users[7] = []motif.Candidate{{User: 7, Item: graph.VertexID(c)}}
		st.Items[7] = uint64(c)
		st.Targets[7] = []dynstore.InEdge{{B: graph.VertexID(c), TS: 100}}
	case tombstone:
		st.Users[7], st.Targets[7] = nil, nil
	}
	return st.segment()
}

// holds reports what a merged segment's two list sections hold under key
// 7, which must agree.
func holds(t *testing.T, s *Segment) cell {
	t.Helper()
	users, targets := find(s.Users, 7), find(s.Targets, 7)
	switch {
	case users == nil && targets == nil:
		return absent
	case users != nil && targets != nil && len(*users) == 0 && len(*targets) == 0:
		return tombstone
	case users != nil && targets != nil && len(*users) == 1 && len(*targets) == 1 && (*users)[0].Item == (*targets)[0].B:
		return cell((*users)[0].Item)
	}
	t.Fatalf("sections disagree about key 7: users %v, targets %v", users, targets)
	return absent
}

// TestSegmentMergeLaw is the newer-wins rule as a table: what the merge of
// an older and a newer segment holds for a key, by what each held. Every
// row runs as delta∘delta — the writer's coalescing and failed-persist
// carry, where a tombstone survives because a segment older still may hold
// the key — and as base∘delta, the fold, where it is dropped: a base never
// encodes an empty list.
func TestSegmentMergeLaw(t *testing.T) {
	for _, row := range []struct {
		name                  string
		older, newer          cell
		wantDelta, wantOnBase cell
	}{
		{"key only in older", olderValue, absent, olderValue, olderValue},
		{"key only in newer", absent, newerValue, newerValue, newerValue},
		{"key in both", olderValue, newerValue, newerValue, newerValue},
		{"older value, newer tombstone", olderValue, tombstone, tombstone, absent},
		{"older tombstone, newer absent", tombstone, absent, tombstone, absent},
		{"older tombstone, newer value", tombstone, newerValue, newerValue, newerValue},
		{"tombstone only in newer", absent, tombstone, tombstone, absent},
	} {
		t.Run(row.name, func(t *testing.T) {
			for _, asBase := range []bool{false, true} {
				want := row.wantDelta
				if asBase {
					want = row.wantOnBase
				}
				got := Merge(asBase, lawSegment(row.older, 1, 3), lawSegment(row.newer, 2, 9))
				if c := holds(t, got); c != want {
					t.Fatalf("asBase=%v: merged segment holds %d under key 7, want %d", asBase, c, want)
				}
				// A counter is never deleted, so the segment holding a
				// tombstone holds no counter: the newest one that counts
				// the item wins, under either mode.
				wantCount := absent
				for _, c := range []cell{row.older, row.newer} {
					if c != absent && c != tombstone {
						wantCount = c
					}
				}
				if count := find(got.Items, 7); (count == nil) != (wantCount == absent) || count != nil && *count != uint64(wantCount) {
					t.Fatalf("asBase=%v: merged item counter %v, want %d", asBase, count, wantCount)
				}
				if got.SweepClock != 2 {
					t.Fatalf("asBase=%v: SweepClock = %d, want the newer's 2", asBase, got.SweepClock)
				}
				for _, bystander := range []graph.VertexID{3, 9} {
					if find(got.Users, bystander) == nil || find(got.Items, bystander) == nil || find(got.Targets, bystander) == nil {
						t.Fatalf("asBase=%v: key %d, held by one segment only, dropped", asBase, bystander)
					}
				}
				if !asBase {
					continue
				}
				// What the fold returns encodes as a base and comes back
				// the same, with no empty list in it.
				back, err := DecodeBase(baseBytes(t, got), nil)
				if err != nil || !statesEqual(back, got) {
					t.Fatalf("folded segment does not round-trip as a base (err %v)", err)
				}
				for _, e := range back.Users {
					if len(e.Val) == 0 {
						t.Fatalf("base encodes an empty list for user %d", e.Key)
					}
				}
				for _, e := range back.Targets {
					if len(e.Val) == 0 {
						t.Fatalf("base encodes an empty list for target %d", e.Key)
					}
				}
			}
		})
	}
}

// fuzzChain reads a chain of segments out of fuzz input, two bytes per
// entry: the first picks the section and one of sixteen keys — and, with
// its top bit, starts the next segment — the second the value (for a list,
// its length: zero is a tombstone). The first segment is the chain's base
// and takes no tombstones.
func fuzzChain(data []byte) []*mapState {
	chain := []*mapState{newMapState()}
	for ; len(data) >= 2; data = data[2:] {
		op, val := data[0], data[1]
		if op&0x80 != 0 && len(chain) < 12 {
			chain = append(chain, newMapState())
		}
		st, key := chain[len(chain)-1], graph.VertexID(op&0x0f)
		n := int(val % 4)
		if n == 0 && len(chain) == 1 {
			n = 1
		}
		switch op >> 4 & 0x03 {
		case 0:
			list := make([]motif.Candidate, n)
			for i := range list {
				list[i] = motif.Candidate{User: key, Item: graph.VertexID(val), Via: []graph.VertexID{graph.VertexID(i)}, Program: "p"}
			}
			st.Users[key] = list
		case 1:
			st.Items[key] = uint64(val)
		case 2:
			list := make([]dynstore.InEdge, n)
			for i := range list {
				list[i] = dynstore.InEdge{B: graph.VertexID(val), TS: int64(i)}
			}
			st.Targets[key] = list
		case 3:
			st.SweepClock = int64(val)
		}
	}
	return chain
}

// FuzzSegmentMerge holds the run merge against the map oracle on random
// chains: however the chain is associated — all at once, one delta at a
// time from the base up, the deltas coalesced first newest to oldest, or
// in adjacent pairs as a backlogged writer leaves them — the fold equals
// the last-write-wins fold over maps, and encodes to the same base bytes.
func FuzzSegmentMerge(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x07, 2, 0x17, 5, 0x27, 3, 0x87, 0, 0x27, 0, 0x83, 1, 0x27, 2})
	f.Add([]byte{0x01, 1, 0x22, 3, 0x81, 0, 0x12, 9, 0x82, 2, 0x81, 3, 0xb0, 7, 0x8f, 0, 0x2f, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		states := fuzzChain(data)
		chain := make([]*Segment, len(states))
		oracle := newMapState()
		for i, st := range states {
			chain[i] = st.segment()
			oracle.applyDelta(st)
		}
		want := oracle.segment()
		wantBytes := baseBytes(t, want)

		folds := map[string]*Segment{"all at once": Merge(true, chain...)}
		left := chain[0]
		for _, d := range chain[1:] {
			left = Merge(true, left, d)
		}
		folds["base up"] = left
		right := chain[len(chain)-1]
		for i := len(chain) - 2; i >= 1; i-- {
			right = Merge(false, chain[i], right)
		}
		if len(chain) > 1 {
			right = Merge(true, chain[0], right)
		}
		folds["newest down"] = right
		pairs := []*Segment{chain[0]}
		for i := 1; i < len(chain); i += 2 {
			pairs = append(pairs, Merge(false, chain[i:min(i+2, len(chain))]...))
		}
		folds["coalesced pairs"] = Merge(true, pairs...)

		for name, got := range folds {
			if !statesEqual(got, want) {
				t.Fatalf("%s: fold %+v, oracle %+v", name, got, want)
			}
			if !bytes.Equal(baseBytes(t, got), wantBytes) {
				t.Fatalf("%s: fold encodes differently from the oracle", name)
			}
		}
	})
}

// handSegment hand-encodes a CRC-valid base or delta file whose users and
// items sections hold the given keys in the given order (each user with an
// empty list, each item with count 1) over an empty D section — what no
// encoder here writes once the keys do not ascend.
func handSegment(t *testing.T, delta bool, users, items []uint64) []byte {
	t.Helper()
	var b, d []byte
	if delta {
		b = binary.AppendUvarint(append(b, deltaMagic[:]...), deltaVersion)
		b = binary.AppendVarint(b, 5) // sweep clock
		d = dynstore.AppendTargets(nil, nil, true)
	} else {
		b = binary.AppendUvarint(append(b, partMagic[:]...), partSnapVersion)
		d = core.AppendEngineState(nil, 5, nil)
	}
	b = binary.AppendUvarint(b, uint64(len(users)))
	for _, a := range users {
		b = binary.AppendUvarint(binary.AppendUvarint(b, a), 0)
	}
	b = binary.AppendUvarint(b, uint64(len(items)))
	for _, it := range items {
		b = binary.AppendUvarint(binary.AppendUvarint(b, it), 1)
	}
	b = append(b, d...)
	return binary.LittleEndian.AppendUint32(b, codecutil.CRC32C(b))
}

// TestDecodeRejectsKeysOutOfOrder: a CRC-valid segment whose users or items
// do not strictly ascend — a repeated user used to last-win silently in the
// decoder's map, and would break the merge's precondition now — is a decode
// error in both sections of both formats, like a repeated D target, and
// merges nothing.
func TestDecodeRejectsKeysOutOfOrder(t *testing.T) {
	base := lawSegment(olderValue, 1, 3)
	before := baseBytes(t, base)
	for _, delta := range []bool{false, true} {
		decode := DecodeBase
		if delta {
			decode = ParseDelta
		}
		if s, err := decode(handSegment(t, delta, []uint64{7, 9}, []uint64{900, 901}), nil); err != nil || len(s.Users) != 2 || len(s.Items) != 2 {
			t.Fatalf("delta=%v: ascending hand-encoded segment rejected: %v", delta, err)
		}
		for name, data := range map[string][]byte{
			"repeated user":    handSegment(t, delta, []uint64{7, 7}, nil),
			"descending users": handSegment(t, delta, []uint64{9, 7}, nil),
			"repeated item":    handSegment(t, delta, []uint64{7}, []uint64{900, 900}),
			"descending items": handSegment(t, delta, nil, []uint64{901, 900}),
		} {
			s, err := decode(data, nil)
			if err == nil || s != nil || !strings.Contains(err.Error(), "not ascending") {
				t.Fatalf("delta=%v, %s: decoded to %+v, err %v", delta, name, s, err)
			}
			if !delta {
				continue
			}
			if got, err := applyDelta(base, data); err == nil || got != base || !bytes.Equal(baseBytes(t, base), before) {
				t.Fatalf("%s: rejected delta touched the state it was to fold onto (err %v)", name, err)
			}
		}
	}
	// A message names the keys.
	_, err := DecodeBase(handSegment(t, false, []uint64{9, 7}, nil), nil)
	if want := fmt.Sprintf("%d after %d", 7, 9); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the keys (%s)", err, want)
	}
}

// foldFiles encodes a chain of states as the writer leaves it on disk — the
// states at bases as bases, the rest as deltas — and folds it through Chain.
func foldFiles(t testing.TB, states []*mapState, bases map[int]bool) []byte {
	t.Helper()
	var ch Chain
	for i, st := range states {
		file := st.segment().AppendDelta(nil)
		if bases[i] {
			file = st.segment().AppendBase(nil)
		}
		if err := ch.Add(file, bases[i]); err != nil {
			t.Fatalf("segment %d: %v", i, err)
		}
	}
	return ch.AppendBase(nil)
}

// FuzzFold holds the fold of encoded segments against the map oracle on the
// chains fuzzChain reads — a base, then deltas whose empty lists are
// tombstones: the fold's bytes are the oracle's base encoding, and so Merge's
// of the decoded chain.
func FuzzFold(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x07, 2, 0x17, 5, 0x27, 3, 0x87, 0, 0x27, 0, 0x83, 1, 0x27, 2})
	f.Add([]byte{0x01, 1, 0x22, 3, 0x81, 0, 0x12, 9, 0x82, 2, 0x81, 3, 0xb0, 7, 0x8f, 0, 0x2f, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		states := fuzzChain(data)
		oracle := newMapState()
		for _, st := range states {
			oracle.applyDelta(st)
		}
		if got, want := foldFiles(t, states, map[int]bool{0: true}), baseBytes(t, oracle.segment()); !bytes.Equal(got, want) {
			t.Fatalf("fold of %d segments encodes differently from the oracle", len(states))
		}
	})
}

// TestFoldMatchesOracle is the fold at the cut shapes the benchmark writes:
// a base and eight deltas with tombstones (foldChain) fold to the oracle's
// bytes, which are also Merge's of the decoded chain.
func TestFoldMatchesOracle(t *testing.T) {
	for _, shape := range cutShapes {
		files, states := foldChain(shape, 8)
		var ch Chain
		decoded := make([]*Segment, len(files))
		oracle := newMapState()
		for i, file := range files {
			if err := ch.Add(file, i == 0); err != nil {
				t.Fatalf("%s: segment %d: %v", shape.name, i, err)
			}
			decode := ParseDelta
			if i == 0 {
				decode = DecodeBase
			}
			var err error
			if decoded[i], err = decode(file, nil); err != nil {
				t.Fatal(err)
			}
			oracle.applyDelta(states[i])
		}
		got, want := ch.AppendBase(nil), baseBytes(t, oracle.segment())
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: fold encodes differently from the oracle", shape.name)
		}
		if merged := baseBytes(t, Merge(true, decoded...)); !bytes.Equal(got, merged) {
			t.Fatalf("%s: fold encodes differently from Merge of the decoded chain", shape.name)
		}
	}
}

// TestFoldBaseSupersedes: a base anywhere in a chain replaces everything
// before it, and a segment that fails the walk adds nothing — the fold is
// the oracle's from the last base on (from the empty state without one).
func TestFoldBaseSupersedes(t *testing.T) {
	// state returns a small state: a user, an item and a target under key k,
	// and a tombstone for key k-1's user and target when tombstones is set.
	state := func(k graph.VertexID, tombstones bool) *mapState {
		st := newMapState()
		st.SweepClock = int64(k)
		st.Users[k] = []motif.Candidate{{User: k, Item: k, Via: []graph.VertexID{k}, Program: "p"}}
		st.Items[k] = uint64(k)
		st.Targets[k] = []dynstore.InEdge{{B: k, TS: int64(k)}}
		if tombstones {
			st.Users[k-1], st.Targets[k-1] = nil, nil
		}
		return st
	}
	a, b, c, d := state(2, false), state(3, true), state(5, false), state(6, true)
	fold := func(states ...*mapState) []byte {
		oracle := newMapState()
		for _, st := range states {
			oracle.applyDelta(st)
		}
		return baseBytes(t, oracle.segment())
	}
	for _, row := range []struct {
		name   string
		chain  []*mapState
		bases  map[int]bool
		oracle []*mapState
	}{
		{"base first", []*mapState{a, b}, map[int]bool{0: true}, []*mapState{a, b}},
		{"base mid-chain", []*mapState{a, b, c, d}, map[int]bool{0: true, 2: true}, []*mapState{c, d}},
		{"base last", []*mapState{a, b, c}, map[int]bool{0: true, 2: true}, []*mapState{c}},
		{"deltas before the first base", []*mapState{b, d, c, b}, map[int]bool{2: true}, []*mapState{c, b}},
		{"no base: the stream's start", []*mapState{b, d}, nil, []*mapState{b, d}},
		{"empty chain", nil, nil, nil},
	} {
		t.Run(row.name, func(t *testing.T) {
			if got, want := foldFiles(t, row.chain, row.bases), fold(row.oracle...); !bytes.Equal(got, want) {
				t.Fatal("fold differs from the oracle's from the last base on")
			}
		})
	}
	t.Run("corrupt segment adds nothing", func(t *testing.T) {
		var ch Chain
		if err := ch.Add(a.segment().AppendBase(nil), true); err != nil {
			t.Fatal(err)
		}
		before := ch.AppendBase(nil)
		for _, base := range []bool{false, true} {
			bad := c.segment().AppendDelta(nil)
			if base {
				bad = c.segment().AppendBase(nil)
			}
			bad[len(bad)/2] ^= 0x40
			if err := ch.Add(bad, base); err == nil {
				t.Fatalf("base=%v: corrupt segment walked", base)
			}
			if !bytes.Equal(ch.AppendBase(nil), before) {
				t.Fatalf("base=%v: a rejected segment changed the fold", base)
			}
		}
	})
}
