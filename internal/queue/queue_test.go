package queue

import (
	"sync"
	"testing"
	"time"
)

func TestTopicFanOut(t *testing.T) {
	topic := NewTopicWithLog[int](Options{Name: "t"}, nil)
	s1 := topic.Subscribe()
	s2 := topic.Subscribe()
	if err := topic.Publish(42, 0); err != nil {
		t.Fatal(err)
	}
	for i, s := range []<-chan Envelope[int]{s1, s2} {
		env := <-s
		if env.Msg != 42 {
			t.Fatalf("subscriber %d got %v", i, env.Msg)
		}
	}
	if topic.Published() != 1 {
		t.Fatalf("Published = %d", topic.Published())
	}
	if topic.Name() != "t" {
		t.Fatal("name lost")
	}
}

func TestTopicOrderingPerSubscriber(t *testing.T) {
	topic := NewTopicWithLog[int](Options{Buffer: 100}, nil)
	sub := topic.Subscribe()
	for i := 0; i < 50; i++ {
		topic.Publish(i, 0)
	}
	topic.Close()
	i := 0
	for env := range sub {
		if env.Msg != i {
			t.Fatalf("out of order: got %d at position %d", env.Msg, i)
		}
		i++
	}
	if i != 50 {
		t.Fatalf("received %d messages, want 50", i)
	}
}

func TestTopicCloseSemantics(t *testing.T) {
	topic := NewTopicWithLog[int](Options{}, nil)
	sub := topic.Subscribe()
	topic.Close()
	if _, ok := <-sub; ok {
		t.Fatal("subscriber channel should be closed")
	}
	if err := topic.Publish(1, 0); err != ErrClosed {
		t.Fatalf("Publish after Close = %v, want ErrClosed", err)
	}
	topic.Close() // double close is safe
	// Subscribing after close yields an already-closed channel.
	late := topic.Subscribe()
	if _, ok := <-late; ok {
		t.Fatal("late subscriber should get a closed channel")
	}
}

func TestTopicBackpressure(t *testing.T) {
	topic := NewTopicWithLog[int](Options{Buffer: 1}, nil)
	sub := topic.Subscribe()
	topic.Publish(1, 0) // fills the buffer
	done := make(chan struct{})
	go func() {
		topic.Publish(2, 0) // blocks until drained
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Publish should have blocked on a full buffer")
	case <-time.After(20 * time.Millisecond):
	}
	<-sub // drain one
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Publish did not unblock after drain")
	}
}

func TestTopicConcurrentPublish(t *testing.T) {
	topic := NewTopicWithLog[int](Options{Buffer: 10_000}, nil)
	sub := topic.Subscribe()
	var wg sync.WaitGroup
	const writers = 4
	const per = 500
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := topic.Publish(w*per+i, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	topic.Close()
	got := map[int]bool{}
	for env := range sub {
		got[env.Msg] = true
	}
	if len(got) != writers*per {
		t.Fatalf("received %d distinct messages, want %d", len(got), writers*per)
	}
}
