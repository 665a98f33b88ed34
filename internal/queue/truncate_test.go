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

func TestSubscribeFromAfterTruncation(t *testing.T) {
	topic := newRetained[int](Options{Buffer: 256})
	for i := 0; i < 100; i++ {
		topic.Publish(i, 0)
	}
	topic.TruncateBelow(60)

	// Below the compaction horizon: a typed, inspectable error.
	if _, err := topic.SubscribeFrom(59); !errors.Is(err, ErrTruncated) {
		t.Fatalf("SubscribeFrom below log start = %v, want ErrTruncated", err)
	}
	// At the horizon: replays the retained suffix with correct offsets.
	sub, err := topic.SubscribeFrom(60)
	if err != nil {
		t.Fatal(err)
	}
	topic.Close()
	want := uint64(60)
	for env := range sub {
		if env.Offset != want {
			t.Fatalf("Offset = %d, want %d", env.Offset, want)
		}
		if env.Msg != int(want) {
			t.Fatalf("Msg = %d, want %d", env.Msg, want)
		}
		want++
	}
	if want != 100 {
		t.Fatalf("replayed through %d, want 100", want)
	}
}

func TestSubscribeFromMidLogAfterTruncation(t *testing.T) {
	topic := newRetained[int](Options{Buffer: 256})
	for i := 0; i < 50; i++ {
		topic.Publish(i, 0)
	}
	topic.TruncateBelow(10)
	sub, err := topic.SubscribeFrom(25)
	if err != nil {
		t.Fatal(err)
	}
	topic.Close()
	want := uint64(25)
	for env := range sub {
		if env.Offset != want {
			t.Fatalf("Offset = %d, want %d", env.Offset, want)
		}
		want++
	}
	if want != 50 {
		t.Fatalf("replayed through %d, want 50", want)
	}
}
