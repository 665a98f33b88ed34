package queue

import (
	"errors"
	"io"
	"sync"
	"testing"
	"time"
)

// readToEnd reads r to the end of the log, waiting on Ready between empty
// reads, and returns what it read. It calls t.Fatal, so only the test's own
// goroutine may use it. The odd batch size makes reads straddle the tail's
// wrap.
func readToEnd[T any](t *testing.T, r *Reader[T]) []Envelope[T] {
	t.Helper()
	var got []Envelope[T]
	buf := make([]Envelope[T], 7)
	for {
		n, err := r.Read(buf)
		got = append(got, buf[:n]...)
		switch {
		case n > 0:
		case errors.Is(err, io.EOF):
			return got
		case err != nil:
			t.Fatalf("read after %d envelopes: %v", len(got), err)
		default:
			select {
			case <-r.Ready():
			case <-time.After(10 * time.Second):
				t.Fatalf("no wake-up after %d envelopes", len(got))
			}
		}
	}
}

// drainAll reads r on its own goroutine until the end of the log or an
// error, and returns what it read through the channel.
func drainAll[T any](r *Reader[T]) <-chan []Envelope[T] {
	out := make(chan []Envelope[T], 1)
	go func() {
		var got []Envelope[T]
		buf := make([]Envelope[T], 7)
		for {
			n, err := r.Read(buf)
			got = append(got, buf[:n]...)
			if n > 0 {
				continue
			}
			if err != nil {
				out <- got
				return
			}
			<-r.Ready()
		}
	}()
	return out
}

func mustReader[T any](t *testing.T, topic *Topic[T], offset uint64) *Reader[T] {
	t.Helper()
	r, err := topic.NewReader(offset)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestTopicFanOut(t *testing.T) {
	topic := NewTopicWithLog[int](Options{Name: "t"}, nil)
	r1 := mustReader(t, topic, 0)
	r2 := mustReader(t, topic, 0)
	if err := topic.Publish(42, 0); err != nil {
		t.Fatal(err)
	}
	for i, r := range []*Reader[int]{r1, r2} {
		buf := make([]Envelope[int], 4)
		if n, err := r.Read(buf); n != 1 || err != nil || buf[0].Msg != 42 {
			t.Fatalf("reader %d read %d, %v: %v", i, n, err, buf[:n])
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
	r := mustReader(t, topic, 0)
	for i := 0; i < 50; i++ {
		topic.Publish(i, 0)
	}
	topic.Close()
	got := readToEnd(t, r)
	for i, env := range got {
		if env.Msg != i {
			t.Fatalf("out of order: got %d at position %d", env.Msg, i)
		}
	}
	if len(got) != 50 {
		t.Fatalf("received %d messages, want 50", len(got))
	}
}

func TestTopicCloseSemantics(t *testing.T) {
	topic := NewTopicWithLog[int](Options{}, nil)
	r := mustReader(t, topic, 0)
	topic.Close()
	if n, err := r.Read(make([]Envelope[int], 1)); n != 0 || err != io.EOF {
		t.Fatalf("Read after Close = %d, %v, want io.EOF", n, err)
	}
	if err := topic.Publish(1, 0); err != ErrClosed {
		t.Fatalf("Publish after Close = %v, want ErrClosed", err)
	}
	topic.Close() // double close is safe
	// A reader opened after close is at the end of the log already.
	late := mustReader(t, topic, 0)
	if n, err := late.Read(make([]Envelope[int], 1)); n != 0 || err != io.EOF {
		t.Fatalf("late reader read %d, %v, want io.EOF", n, err)
	}
}

func TestTopicBackpressure(t *testing.T) {
	topic := NewTopicWithLog[int](Options{Buffer: 1}, nil)
	r := mustReader(t, topic, 0)
	topic.Publish(1, 0) // fills the tail
	done := make(chan struct{})
	go func() {
		topic.Publish(2, 0) // blocks until the reader reads
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Publish should have blocked on a reader a whole tail behind")
	case <-time.After(20 * time.Millisecond):
	}
	if n, _ := r.Read(make([]Envelope[int], 1)); n != 1 { // read one
		t.Fatalf("read %d", n)
	}
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Publish did not unblock after the read")
	}
}

func TestTopicConcurrentPublish(t *testing.T) {
	topic := NewTopicWithLog[int](Options{Buffer: 10_000}, nil)
	r := mustReader(t, topic, 0)
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
	for _, env := range readToEnd(t, r) {
		got[env.Msg] = true
	}
	if len(got) != writers*per {
		t.Fatalf("received %d distinct messages, want %d", len(got), writers*per)
	}
}

// TestSubscribeAdapters pins the two channel adapters the benchmark driver
// ranges over: Subscribe from the head, SubscribeFrom from an offset, each
// channel closing at the end of the log.
func TestSubscribeAdapters(t *testing.T) {
	topic := newRetained[int](Options{Buffer: 8})
	for i := 0; i < 20; i++ {
		topic.Publish(i, 0)
	}
	live := topic.Subscribe()
	replay, err := topic.SubscribeFrom(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topic.SubscribeFrom(21); err == nil {
		t.Fatal("SubscribeFrom beyond the head accepted")
	}
	for i := 20; i < 40; i++ {
		topic.Publish(i, 0)
	}
	topic.Close()
	for name, c := range map[string]struct {
		ch    <-chan Envelope[int]
		first int
	}{"Subscribe": {live, 20}, "SubscribeFrom": {replay, 3}} {
		want := c.first
		for env := range c.ch {
			if env.Msg != want || env.Offset != uint64(want) {
				t.Fatalf("%s: got %d at offset %d, want %d", name, env.Msg, env.Offset, want)
			}
			want++
		}
		if want != 40 {
			t.Fatalf("%s: channel closed at %d, want 40", name, want)
		}
	}
}
