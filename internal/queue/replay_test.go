package queue

import (
	"sync"
	"testing"
	"time"
)

func TestEnvelopeOffsetsAreSequential(t *testing.T) {
	topic := NewTopicWithLog[int](Options{Buffer: 16}, nil)
	sub := topic.Subscribe()
	for i := 0; i < 10; i++ {
		topic.Publish(i, 0)
	}
	topic.Close()
	want := uint64(0)
	for env := range sub {
		if env.Offset != want {
			t.Fatalf("Offset = %d, want %d", env.Offset, want)
		}
		want++
	}
	if want != 10 {
		t.Fatalf("received %d envelopes", want)
	}
}

func TestSubscribeFromRequiresRetention(t *testing.T) {
	topic := NewTopicWithLog[int](Options{}, nil)
	if _, err := topic.SubscribeFrom(0); err != ErrNotRetained {
		t.Fatalf("SubscribeFrom on non-retained topic = %v, want ErrNotRetained", err)
	}
}

func TestSubscribeFromRejectsFutureOffset(t *testing.T) {
	topic := newRetained[int](Options{})
	topic.Publish(1, 0)
	if _, err := topic.SubscribeFrom(2); err == nil {
		t.Fatal("offset beyond head accepted")
	}
	if _, err := topic.SubscribeFrom(1); err != nil {
		t.Fatalf("offset at head rejected: %v", err)
	}
}

func TestSubscribeFromReplaysHistoryThenGoesLive(t *testing.T) {
	topic := newRetained[int](Options{Buffer: 1024})
	for i := 0; i < 500; i++ {
		topic.Publish(i, 0)
	}
	sub, err := topic.SubscribeFrom(100)
	if err != nil {
		t.Fatal(err)
	}
	// Keep publishing live while the replay is in flight; the subscriber
	// must observe one contiguous, gapless, duplicate-free sequence.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 500; i < 1_000; i++ {
			topic.Publish(i, 0)
		}
		topic.Close()
	}()
	want := 100
	for env := range sub {
		if env.Msg != want || env.Offset != uint64(want) {
			t.Fatalf("got msg %d offset %d, want %d", env.Msg, env.Offset, want)
		}
		want++
	}
	if want != 1_000 {
		t.Fatalf("stream ended at %d, want 1000", want)
	}
	wg.Wait()
}

func TestSubscribeFromOnClosedTopicDrainsThenCloses(t *testing.T) {
	topic := newRetained[int](Options{Buffer: 16})
	for i := 0; i < 5; i++ {
		topic.Publish(i, 0)
	}
	topic.Close()
	sub, err := topic.SubscribeFrom(2)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for env := range sub {
		if env.Offset != uint64(2+got) {
			t.Fatalf("offset %d at position %d", env.Offset, got)
		}
		got++
	}
	if got != 3 {
		t.Fatalf("drained %d retained messages, want 3", got)
	}
}

func TestUnsubscribeReleasesBlockedPublisher(t *testing.T) {
	topic := NewTopicWithLog[int](Options{Buffer: 1}, nil)
	dead := topic.Subscribe()
	live := topic.Subscribe()
	// Drain the live subscriber continuously so only dead's buffer wedges.
	var got []int
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for env := range live {
			got = append(got, env.Msg)
		}
	}()
	topic.Publish(1, 0) // fills dead's buffer (nobody drains it)
	unblocked := make(chan struct{})
	go func() {
		topic.Publish(2, 0) // blocks on dead's full buffer
		topic.Publish(3, 0)
		close(unblocked)
	}()
	time.Sleep(10 * time.Millisecond) // let the publisher wedge
	topic.Unsubscribe(dead)
	select {
	case <-unblocked:
	case <-time.After(2 * time.Second):
		t.Fatal("Unsubscribe did not release the blocked publisher")
	}
	// The live subscriber still sees every message.
	topic.Close()
	<-drained
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("live subscriber got %v, want [1 2 3]", got)
	}
	// Unknown channel and double unsubscribe are no-ops.
	topic.Unsubscribe(dead)
	topic.Unsubscribe(make(chan Envelope[int]))
}

func TestUnsubscribeDuringReplayStopsReplay(t *testing.T) {
	topic := newRetained[int](Options{Buffer: 1})
	for i := 0; i < 1_000; i++ {
		topic.Publish(i, 0)
	}
	sub, err := topic.SubscribeFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	<-sub // replay started
	topic.Unsubscribe(sub)
	// The replay goroutine must wind down without wedging Close.
	done := make(chan struct{})
	go func() {
		topic.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close wedged after mid-replay Unsubscribe")
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
