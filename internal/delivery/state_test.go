package delivery

import (
	"bytes"
	"testing"
	"time"

	"motifstream/internal/codecutil"
	"motifstream/internal/graph"
)

// stateOpts is a deterministic pipeline configuration for codec tests.
func stateOpts(capacity, budget int) Options {
	opts := Options{
		DedupTTL:         time.Hour,
		DedupCapacity:    capacity,
		MaxPerUserPerDay: budget,
	}
	alwaysAwake(&opts)
	return opts
}

func encodeState(t *testing.T, p *Pipeline) []byte {
	t.Helper()
	return p.AppendState(nil)
}

// restoreState restores p from data, one whole snapshot.
func restoreState(p *Pipeline, data []byte) error {
	return p.Restore(codecutil.NewCursor(data, "delivery state"))
}

func TestStateRoundTripSuppression(t *testing.T) {
	src := NewPipeline(stateOpts(16, 2))
	src.Offer(cand(1, 2, 1_000), 0)
	src.Offer(cand(3, 4, 2_000), 0)
	src.Offer(cand(5, 10, 3_000), 0)
	src.Offer(cand(5, 11, 4_000), 0) // user 5's budget (2) is now spent
	data := encodeState(t, src)

	dst := NewPipeline(stateOpts(16, 2))
	if err := restoreState(dst, data); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	// Restored dedup entries suppress repeats within the TTL.
	if d, _ := dst.Offer(cand(1, 2, 5_000), 0); d != DroppedDuplicate {
		t.Fatalf("restored (1,2) = %v, want duplicate", d)
	}
	if d, _ := dst.Offer(cand(3, 4, 5_000), 0); d != DroppedDuplicate {
		t.Fatalf("restored (3,4) = %v, want duplicate", d)
	}
	// Restored fatigue budget blocks a fresh item on the same stream day.
	if d, _ := dst.Offer(cand(5, 12, 6_000), 0); d != DroppedFatigue {
		t.Fatalf("restored budget for user 5 = %v, want fatigue", d)
	}
	// Expiry times survive: past the TTL the pair delivers again.
	if d, _ := dst.Offer(cand(1, 2, 1_000+time.Hour.Milliseconds()+1), 0); d != Delivered {
		t.Fatalf("expired restored entry = %v, want delivered", d)
	}
}

func TestStateRecencyOrderSurvives(t *testing.T) {
	src := NewPipeline(stateOpts(2, 1<<30))
	src.Offer(cand(1, 1, 1_000), 0) // oldest
	src.Offer(cand(2, 2, 2_000), 0) // newest
	data := encodeState(t, src)

	dst := NewPipeline(stateOpts(2, 1<<30))
	if err := restoreState(dst, data); err != nil {
		t.Fatal(err)
	}
	// Capacity pressure evicts the restored LRU tail — (1,1), not (2,2).
	dst.Offer(cand(3, 3, 3_000), 0)
	if d, _ := dst.Offer(cand(2, 2, 4_000), 0); d != DroppedDuplicate {
		t.Fatalf("most recent restored entry evicted first: %v", d)
	}
	if d, _ := dst.Offer(cand(1, 1, 5_000), 0); d != Delivered {
		t.Fatalf("LRU tail survived eviction: %v", d)
	}
}

func TestStateRestoreClampsToCapacity(t *testing.T) {
	src := NewPipeline(stateOpts(4, 1<<30))
	for i := 1; i <= 4; i++ {
		src.Offer(cand(graph.VertexID(i), graph.VertexID(i), int64(i)*1_000), 0)
	}
	data := encodeState(t, src)

	// Restore into a pipeline whose capacity shrank: the newest entries win.
	dst := NewPipeline(stateOpts(2, 1<<30))
	if err := restoreState(dst, data); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if d, _ := dst.Offer(cand(graph.VertexID(i), graph.VertexID(i), 10_000), 0); d != Delivered {
			t.Fatalf("oldest entry %d survived the capacity clamp: %v", i, d)
		}
	}
	// Offers above refilled the LRU; the clamped-in newest pair from the
	// snapshot was present before them.
	src2 := NewPipeline(stateOpts(2, 1<<30))
	if err := restoreState(src2, data); err != nil {
		t.Fatal(err)
	}
	for i := 3; i <= 4; i++ {
		if d, _ := src2.Offer(cand(graph.VertexID(i), graph.VertexID(i), 10_000), 0); d != DroppedDuplicate {
			t.Fatalf("newest entry %d lost in the capacity clamp: %v", i, d)
		}
	}
}

func TestStateEmptyRoundTrip(t *testing.T) {
	data := encodeState(t, NewPipeline(stateOpts(8, 4)))
	dst := NewPipeline(stateOpts(8, 4))
	if err := restoreState(dst, data); err != nil {
		t.Fatal(err)
	}
	if d, _ := dst.Offer(cand(1, 2, 1_000), 0); d != Delivered {
		t.Fatalf("empty restore poisoned the pipeline: %v", d)
	}
}

func TestStateCorruptionDetected(t *testing.T) {
	src := NewPipeline(stateOpts(16, 2))
	for i := 1; i <= 8; i++ {
		src.Offer(cand(graph.VertexID(i), graph.VertexID(100+i), int64(i)*1_000), 0)
	}
	data := encodeState(t, src)

	// A flipped bit anywhere must surface as an error, and a failed
	// restore must leave the target pipeline untouched.
	for _, at := range []int{0, len(data) / 3, len(data) / 2, len(data) - 2} {
		bad := bytes.Clone(data)
		bad[at] ^= 0x10
		dst := NewPipeline(stateOpts(16, 2))
		dst.Offer(cand(50, 50, 1_000), 0)
		if err := restoreState(dst, bad); err == nil {
			t.Fatalf("corruption at byte %d decoded cleanly", at)
		}
		if d, _ := dst.Offer(cand(50, 50, 2_000), 0); d != DroppedDuplicate {
			t.Fatalf("failed restore mutated the pipeline (at byte %d): %v", at, d)
		}
		if d, _ := dst.Offer(cand(1, 101, 2_000), 0); d != Delivered {
			t.Fatalf("failed restore installed snapshot state (at byte %d): %v", at, d)
		}
	}

	// Truncation must surface too.
	for _, keep := range []int{0, 4, len(data) / 2, len(data) - 1} {
		dst := NewPipeline(stateOpts(16, 2))
		if err := restoreState(dst, data[:keep]); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", keep)
		}
	}
}

// FuzzDeliveryStateReadFrom pins the decoder's contract: arbitrary input
// yields a clean error or a valid restored state — never a panic, and
// never a pipeline the next Offer can crash.
func FuzzDeliveryStateReadFrom(f *testing.F) {
	seed := NewPipeline(stateOpts(8, 2))
	seed.Offer(cand(1, 2, 1_000), 0)
	seed.Offer(cand(3, 4, 2_000), 0)
	f.Add(seed.AppendState(nil))
	f.Add(NewPipeline(stateOpts(8, 2)).AppendState(nil))
	f.Add([]byte{})
	f.Add([]byte("MSDLVS\x00\x01garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		p := NewPipeline(stateOpts(8, 2))
		if err := restoreState(p, data); err != nil {
			return
		}
		// A clean decode must leave a usable pipeline.
		p.Offer(cand(9, 9, 1_000), 0)
		p.Offer(cand(9, 9, 2_000), 0)
	})
}
