package motifstream_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"motifstream"
)

const dayMS = int64(24 * time.Hour / time.Millisecond)

func TestBuildStaticPrunes(t *testing.T) {
	now := 100 * dayMS
	follows := []motifstream.Edge{
		{Src: 1, Dst: 10, Type: motifstream.Follow, TS: now - 50*dayMS},
		{Src: 1, Dst: 20, Type: motifstream.Follow, TS: now - 50*dayMS},
	}
	// User 1 engages only with 20.
	interactions := []motifstream.Interaction{
		{A: 1, B: 20, TS: now - dayMS},
		{A: 1, B: 20, TS: now - 2*dayMS},
	}
	kept, stats := motifstream.BuildStatic(follows, interactions, now, motifstream.BatchOptions{
		MaxInfluencers: 1,
	})
	if len(kept) != 1 || kept[0].Dst != 20 {
		t.Fatalf("kept = %v, want the engaged-with edge only", kept)
	}
	if stats.InputEdges != 2 || stats.OutputEdges != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestBuildStaticNoCapPassesThrough(t *testing.T) {
	now := dayMS
	follows := []motifstream.Edge{{Src: 1, Dst: 10, Type: motifstream.Follow, TS: now}}
	kept, _ := motifstream.BuildStatic(follows, nil, now, motifstream.BatchOptions{})
	if len(kept) != 1 {
		t.Fatalf("kept = %v", kept)
	}
}

func TestPeriodicStaticReload(t *testing.T) {
	sys, err := motifstream.New(nil, motifstream.Options{K: 2, Window: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	var gen atomic.Int32
	stop := sys.PeriodicStaticReload(5*time.Millisecond, func() ([]motifstream.Edge, []motifstream.Interaction, int64) {
		gen.Add(1)
		return []motifstream.Edge{
			{Src: 1, Dst: 10, Type: motifstream.Follow},
			{Src: 1, Dst: 11, Type: motifstream.Follow},
		}, nil, dayMS
	}, motifstream.BatchOptions{})
	defer stop()

	// The initial reload is synchronous: detection works immediately.
	t0 := int64(1_000_000)
	sys.Apply(motifstream.Edge{Src: 10, Dst: 99, Type: motifstream.Follow, TS: t0})
	got := sys.Apply(motifstream.Edge{Src: 11, Dst: 99, Type: motifstream.Follow, TS: t0 + 1})
	if len(got) != 1 || got[0].User != 1 {
		t.Fatalf("after initial reload: %v", got)
	}

	deadline := time.After(2 * time.Second)
	for gen.Load() < 3 {
		select {
		case <-deadline:
			t.Fatal("periodic reload never ticked")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	stop()
	stop() // idempotent
}

// TestPeriodicStaticReloadConcurrentStop calls the stop function from eight
// goroutines at once: it stops the loop exactly once, every call returns
// only after the loop exited, and under the race detector the calls do not
// race.
func TestPeriodicStaticReloadConcurrentStop(t *testing.T) {
	sys, err := motifstream.New(nil, motifstream.Options{K: 2, Window: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	var reloads atomic.Int32
	stop := sys.PeriodicStaticReload(time.Millisecond, func() ([]motifstream.Edge, []motifstream.Interaction, int64) {
		reloads.Add(1)
		return []motifstream.Edge{{Src: 1, Dst: 10, Type: motifstream.Follow}}, nil, dayMS
	}, motifstream.BatchOptions{})
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			stop()
		}()
	}
	close(start)
	wg.Wait()
	after := reloads.Load()
	time.Sleep(20 * time.Millisecond)
	if n := reloads.Load(); n != after {
		t.Fatalf("loop still reloading after every stop returned: %d → %d reloads", after, n)
	}
}
