package queue

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestEnvelopeOffsetsAreSequential(t *testing.T) {
	topic := NewTopicWithLog[int](Options{Buffer: 16}, nil)
	r := mustReader(t, topic, 0)
	for i := 0; i < 10; i++ {
		topic.Publish(i, 0)
	}
	topic.Close()
	got := readToEnd(t, r)
	for i, env := range got {
		if env.Offset != uint64(i) {
			t.Fatalf("Offset = %d, want %d", env.Offset, i)
		}
	}
	if len(got) != 10 {
		t.Fatalf("received %d envelopes", len(got))
	}
}

// TestSubscribeFromRequiresRetention: an offset behind the in-memory tail
// of a topic without a backend cannot be read — replay needs the log.
func TestSubscribeFromRequiresRetention(t *testing.T) {
	topic := NewTopicWithLog[int](Options{Buffer: 4}, nil)
	for i := 0; i < 6; i++ {
		topic.Publish(i, 0)
	}
	if _, err := topic.NewReader(1); err != ErrNotRetained {
		t.Fatalf("reader behind the tail of a non-retained topic = %v, want ErrNotRetained", err)
	}
	if _, err := topic.NewReader(2); err != nil {
		t.Fatalf("reader at the tail's oldest offset rejected: %v", err)
	}
}

func TestSubscribeFromRejectsFutureOffset(t *testing.T) {
	topic := newRetained[int](Options{})
	topic.Publish(1, 0)
	if _, err := topic.NewReader(2); err == nil {
		t.Fatal("offset beyond head accepted")
	}
	if _, err := topic.NewReader(1); err != nil {
		t.Fatalf("offset at head rejected: %v", err)
	}
}

// TestSubscribeFromReplaysHistoryThenGoesLive: a reader opened far behind
// the tail reads the backend, then the tail, while publishing goes on, as
// one contiguous, gapless, duplicate-free sequence; what lay below the head
// at its open carries PubUnixNS zero.
func TestSubscribeFromReplaysHistoryThenGoesLive(t *testing.T) {
	topic := newRetained[int](Options{Buffer: 64})
	for i := 0; i < 500; i++ {
		topic.Publish(i, 0)
	}
	r := mustReader(t, topic, 100)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 500; i < 1_000; i++ {
			topic.Publish(i, 0)
		}
		topic.Close()
	}()
	got := readToEnd(t, r)
	for i, env := range got {
		want := 100 + i
		if env.Msg != want || env.Offset != uint64(want) {
			t.Fatalf("got msg %d offset %d, want %d", env.Msg, env.Offset, want)
		}
		if want < 500 && env.PubUnixNS != 0 {
			t.Fatalf("replayed offset %d carries PubUnixNS %d", want, env.PubUnixNS)
		}
	}
	if len(got) != 900 {
		t.Fatalf("stream ended at %d, want 1000", 100+len(got))
	}
	wg.Wait()
}

func TestSubscribeFromOnClosedTopicDrainsThenCloses(t *testing.T) {
	topic := newRetained[int](Options{Buffer: 16})
	for i := 0; i < 5; i++ {
		topic.Publish(i, 0)
	}
	topic.Close()
	got := readToEnd(t, mustReader(t, topic, 2))
	for i, env := range got {
		if env.Offset != uint64(2+i) {
			t.Fatalf("offset %d at position %d", env.Offset, i)
		}
	}
	if len(got) != 3 {
		t.Fatalf("drained %d retained messages, want 3", len(got))
	}
}

// TestUnsubscribeReleasesBlockedPublisher: closing a reader that stopped
// reading releases a publisher waiting for it, and the other readers still
// see every message.
func TestUnsubscribeReleasesBlockedPublisher(t *testing.T) {
	topic := NewTopicWithLog[int](Options{Buffer: 1}, nil)
	dead := mustReader(t, topic, 0)
	live := drainAll(mustReader(t, topic, 0))
	topic.Publish(1, 0) // fills dead's view of the tail (nobody reads it)
	unblocked := make(chan struct{})
	go func() {
		topic.Publish(2, 0) // blocks on dead
		topic.Publish(3, 0)
		close(unblocked)
	}()
	time.Sleep(10 * time.Millisecond) // let the publisher wedge
	dead.Close()
	select {
	case <-unblocked:
	case <-time.After(2 * time.Second):
		t.Fatal("closing the reader did not release the blocked publisher")
	}
	topic.Close()
	got := <-live
	if len(got) != 3 || got[0].Msg != 1 || got[1].Msg != 2 || got[2].Msg != 3 {
		t.Fatalf("live reader got %v, want [1 2 3]", got)
	}
	dead.Close() // double close is a no-op
	if _, err := dead.Read(make([]Envelope[int], 1)); err != ErrClosed {
		t.Fatalf("Read after Close = %v, want ErrClosed", err)
	}
}

// TestUnsubscribeDuringReplayStopsReplay: a reader closed mid-replay
// wedges neither Close nor a publisher.
func TestUnsubscribeDuringReplayStopsReplay(t *testing.T) {
	topic := newRetained[int](Options{Buffer: 1})
	for i := 0; i < 1_000; i++ {
		topic.Publish(i, 0)
	}
	r := mustReader(t, topic, 0)
	if n, err := r.Read(make([]Envelope[int], 1)); n != 1 || err != nil { // replay started
		t.Fatalf("first read = %d, %v", n, err)
	}
	r.Close()
	done := make(chan struct{})
	go func() {
		topic.Publish(1_000, 0)
		topic.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Publish or Close wedged after a mid-replay reader Close")
	}
}

func TestPublishedTracksHeadOffset(t *testing.T) {
	topic := newRetained[int](Options{})
	if topic.Published() != 0 {
		t.Fatal("fresh topic Published != 0")
	}
	topic.Publish(1, 0)
	topic.Publish(2, 0)
	if topic.Published() != 2 {
		t.Fatalf("Published = %d, want 2", topic.Published())
	}
}

// TestReplayingReaderJoinsTheBoundInTheTail: Publish does not wait for a
// reader replaying behind the tail. Once a read lands it in the tail it is
// live: Publish waits while it lags by the whole tail, the envelopes below
// the head it joined at carry PubUnixNS zero, and later ones their publish
// time.
func TestReplayingReaderJoinsTheBoundInTheTail(t *testing.T) {
	topic := newRetained[int](Options{Buffer: 4})
	for i := 0; i < 10; i++ {
		topic.Publish(i, 0)
	}
	r := mustReader(t, topic, 0)
	for i := 10; i < 20; i++ { // 20 behind, not waited for
		if err := topic.Publish(i, 0); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]Envelope[int], 16)
	if n, err := r.Read(buf); n != 16 || err != nil {
		t.Fatalf("replay read %d, %v, want 16", n, err)
	}
	done := make(chan error, 1)
	go func() { done <- topic.Publish(20, 0) }() // the reader lags by the whole tail
	select {
	case <-done:
		t.Fatal("Publish did not wait for the reader that joined in the tail")
	case <-time.After(20 * time.Millisecond):
	}
	if n, err := r.Read(buf); n != 4 || err != nil || buf[3].PubUnixNS != 0 {
		t.Fatalf("tail read %d, %v (PubUnixNS %d below the join head)", n, err, buf[3].PubUnixNS)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n, err := r.Read(buf); n != 1 || err != nil || buf[0].Offset != 20 || buf[0].PubUnixNS == 0 {
		t.Fatalf("live read %d, %v: offset %d, PubUnixNS %d", n, err, buf[0].Offset, buf[0].PubUnixNS)
	}
}

// TestReaderBelowTruncationFails: a reader that falls below a truncated log
// start gets ErrTruncated from Read instead of a gap.
func TestReaderBelowTruncationFails(t *testing.T) {
	topic := newRetained[int](Options{Buffer: 4})
	for i := 0; i < 50; i++ {
		topic.Publish(i, 0)
	}
	r := mustReader(t, topic, 10)
	topic.TruncateBelow(20)
	if n, err := r.Read(make([]Envelope[int], 8)); n != 0 || !errors.Is(err, ErrTruncated) {
		t.Fatalf("read below the log start = %d, %v, want ErrTruncated", n, err)
	}
}
