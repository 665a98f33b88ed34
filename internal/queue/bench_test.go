package queue

import (
	"fmt"
	"testing"
)

// BenchmarkPublishFanOut measures one publish delivered to n draining
// subscribers — the firehose pattern where every partition consumes the
// full stream.
func BenchmarkPublishFanOut(b *testing.B) {
	for _, subs := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			t := NewTopic[int](Options{Buffer: 1 << 16})
			done := make(chan struct{}, subs)
			for i := 0; i < subs; i++ {
				ch := t.Subscribe()
				go func() {
					for range ch {
					}
					done <- struct{}{}
				}()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := t.Publish(i, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			t.Close()
			for i := 0; i < subs; i++ {
				<-done
			}
		})
	}
}

// BenchmarkPublish measures one retained publish delivered to a draining
// subscriber, per log backend — the number the disk WAL's fsync batching
// is held to (TestDiskWALPublishWithin2xOfMemory enforces the 2x budget).
func BenchmarkPublish(b *testing.B) {
	backends := []struct {
		name string
		make func(b *testing.B) LogBackend[int]
	}{
		{"memory", func(b *testing.B) LogBackend[int] { return &memLog[int]{} }},
		{"wal", func(b *testing.B) LogBackend[int] { return intWAL(b, b.TempDir(), nil) }},
	}
	for _, be := range backends {
		b.Run(be.name, func(b *testing.B) {
			t := NewTopicWithLog[int](Options{Buffer: 1 << 16}, be.make(b))
			ch := t.Subscribe()
			done := make(chan struct{})
			go func() {
				for range ch {
				}
				close(done)
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := t.Publish(i, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			t.Close()
			<-done
		})
	}
}
