package queue

import (
	"errors"
	"testing"
)

func TestTruncateBelowDropsPrefix(t *testing.T) {
	topic := newRetained[int](Options{Buffer: 64})
	for i := 0; i < 100; i++ {
		topic.Publish(i, 0)
	}
	if got := topic.TruncateBelow(40); got != 40 {
		t.Fatalf("TruncateBelow dropped %d, want 40", got)
	}
	if got := topic.LogStart(); got != 40 {
		t.Fatalf("LogStart = %d, want 40", got)
	}
	// Truncating at or below the start is a no-op.
	if got := topic.TruncateBelow(40); got != 0 {
		t.Fatalf("repeat TruncateBelow dropped %d", got)
	}
	if got := topic.TruncateBelow(10); got != 0 {
		t.Fatalf("backwards TruncateBelow dropped %d", got)
	}
	// Offsets beyond the head clamp.
	if got := topic.TruncateBelow(1_000); got != 60 {
		t.Fatalf("clamped TruncateBelow dropped %d, want 60", got)
	}
	if got := topic.LogStart(); got != 100 {
		t.Fatalf("LogStart after clamp = %d, want 100", got)
	}
	// Published is unaffected by compaction.
	if got := topic.Published(); got != 100 {
		t.Fatalf("Published = %d, want 100", got)
	}
}

func TestTruncateBelowNonRetainedIsNoop(t *testing.T) {
	topic := NewTopicWithLog[int](Options{}, nil)
	topic.Publish(1, 0)
	if got := topic.TruncateBelow(1); got != 0 {
		t.Fatalf("non-retained TruncateBelow dropped %d", got)
	}
}

// TestSubscribeFromAfterTruncation: the tail is shorter than the retained
// suffix, so the readers below read the truncated backend.
func TestSubscribeFromAfterTruncation(t *testing.T) {
	topic := newRetained[int](Options{Buffer: 16})
	for i := 0; i < 100; i++ {
		topic.Publish(i, 0)
	}
	topic.TruncateBelow(60)

	// Below the compaction horizon: a typed, inspectable error.
	if _, err := topic.NewReader(59); !errors.Is(err, ErrTruncated) {
		t.Fatalf("reader below log start = %v, want ErrTruncated", err)
	}
	// At the horizon: replays the retained suffix with correct offsets.
	r := mustReader(t, topic, 60)
	topic.Close()
	got := readToEnd(t, r)
	for i, env := range got {
		want := uint64(60 + i)
		if env.Offset != want {
			t.Fatalf("Offset = %d, want %d", env.Offset, want)
		}
		if env.Msg != int(want) {
			t.Fatalf("Msg = %d, want %d", env.Msg, want)
		}
	}
	if len(got) != 40 {
		t.Fatalf("replayed through %d, want 100", 60+len(got))
	}
}

func TestSubscribeFromMidLogAfterTruncation(t *testing.T) {
	topic := newRetained[int](Options{Buffer: 16})
	for i := 0; i < 50; i++ {
		topic.Publish(i, 0)
	}
	topic.TruncateBelow(10)
	r := mustReader(t, topic, 25)
	topic.Close()
	got := readToEnd(t, r)
	for i, env := range got {
		if env.Offset != uint64(25+i) {
			t.Fatalf("Offset = %d, want %d", env.Offset, 25+i)
		}
	}
	if len(got) != 25 {
		t.Fatalf("replayed through %d, want 50", 25+len(got))
	}
}
