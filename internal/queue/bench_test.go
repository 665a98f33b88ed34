package queue

import (
	"fmt"
	"testing"
)

// BenchmarkPublishFanOut measures one publish read by n draining readers —
// the firehose pattern where every partition consumes the full stream.
func BenchmarkPublishFanOut(b *testing.B) {
	for _, subs := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			t := NewTopicWithLog[int](Options{Buffer: 1 << 16}, nil)
			done := make([]<-chan []Envelope[int], subs)
			for i := range done {
				r, err := t.NewReader(0)
				if err != nil {
					b.Fatal(err)
				}
				done[i] = drainAll(r)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := t.Publish(i, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			t.Close()
			for _, d := range done {
				<-d
			}
		})
	}
}

// BenchmarkPublish measures one retained publish read by a draining
// reader, per log backend — the number the disk WAL's fsync batching
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
			r, err := t.NewReader(0)
			if err != nil {
				b.Fatal(err)
			}
			done := drainAll(r)
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
