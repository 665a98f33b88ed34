package placement

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDirNaming(t *testing.T) {
	if got := Dir("/ckpt", 3, 1, 0); got != filepath.Join("/ckpt", "p003-r01") {
		t.Fatalf("gen-0 dir = %q", got)
	}
	if got := Dir("/ckpt", 3, 1, 2); got != filepath.Join("/ckpt", "p003-r01-g02") {
		t.Fatalf("gen-2 dir = %q", got)
	}
	// Generations must never collide across bumps.
	seen := map[string]bool{}
	for gen := 0; gen < 5; gen++ {
		d := Dir("/ckpt", 0, 0, gen)
		if seen[d] {
			t.Fatalf("generation dir %q reused", d)
		}
		seen[d] = true
	}
}

func TestTableRoundTrip(t *testing.T) {
	path := TablePath(t.TempDir())
	tbl := NewTable(path, 42)
	if _, err := tbl.Bump(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Bump(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Add(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Remove(1, 0); err != nil {
		t.Fatal(err)
	}

	got, err := Load(path, 42)
	if err != nil {
		t.Fatal(err)
	}
	if p := got.Get(0, 1); p.Gen != 2 || p.Removed {
		t.Fatalf("Get(0,1) = %+v, want gen 2", p)
	}
	if p := got.Get(1, 0); !p.Removed {
		t.Fatalf("Get(1,0) = %+v, want removed", p)
	}
	if p := got.Get(1, 2); p.Gen != 0 || p.Removed {
		t.Fatalf("Get(1,2) = %+v, want fresh", p)
	}
	if n := got.Replicas(1); n != 3 {
		t.Fatalf("Replicas(1) = %d, want 3", n)
	}
	if n := got.Replicas(7); n != 0 {
		t.Fatalf("Replicas(7) = %d, want 0 (nothing recorded)", n)
	}
	// Defaults for untouched slots.
	if p := got.Get(5, 0); p.Gen != 0 || p.Removed {
		t.Fatalf("default placement = %+v", p)
	}
}

func TestTableForeignRunLoadsEmpty(t *testing.T) {
	path := TablePath(t.TempDir())
	tbl := NewTable(path, 1)
	if _, err := tbl.Bump(0, 0); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p := got.Get(0, 0); p.Gen != 0 {
		t.Fatalf("foreign-run table resurrected: %+v", p)
	}
}

func TestTableAbsentAndMalformed(t *testing.T) {
	dir := t.TempDir()
	if _, err := Load(TablePath(dir), 1); err != nil {
		t.Fatalf("absent table: %v", err)
	}
	if err := os.WriteFile(TablePath(dir), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(TablePath(dir), 1); err == nil {
		t.Fatal("malformed table loaded without error")
	}
}

func TestTableGuards(t *testing.T) {
	tbl := NewTable(TablePath(t.TempDir()), 1)
	if err := tbl.Remove(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Remove(0, 0); err == nil {
		t.Fatal("double remove accepted")
	}
	if _, err := tbl.Bump(0, 0); err == nil {
		t.Fatal("bump of a decommissioned placement accepted")
	}
	if _, err := tbl.Add(0, 0); err == nil {
		t.Fatal("add over an assigned index accepted")
	}
}

// fakeElastic is a scripted cluster for healer policy tests.
type fakeElastic struct {
	mu     sync.Mutex
	states map[[2]int]string
	healed [][2]int
	err    error
}

func newFakeElastic() *fakeElastic {
	return &fakeElastic{states: map[[2]int]string{
		{0, 0}: "live", {0, 1}: "live",
	}}
}

func (f *fakeElastic) Partitions() int  { return 1 }
func (f *fakeElastic) Replicas(int) int { return 2 }
func (f *fakeElastic) set(pid, r int, s string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.states[[2]int{pid, r}] = s
}
func (f *fakeElastic) ReplicaState(pid, r int) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.states[[2]int{pid, r}], nil
}
func (f *fakeElastic) ReprovisionReplica(pid, r int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return f.err
	}
	f.healed = append(f.healed, [2]int{pid, r})
	f.states[[2]int{pid, r}] = "live"
	return nil
}

// countHeals is an OnHeal that counts a healer's successful re-provisions
// into n.
func countHeals(n *atomic.Uint64) func(int, int, error) {
	return func(_, _ int, err error) {
		if err == nil {
			n.Add(1)
		}
	}
}

func TestHealerReprovisionsAfterDeadline(t *testing.T) {
	fake := newFakeElastic()
	healedCh := make(chan [2]int, 4)
	var healed atomic.Uint64
	h := NewHealer(fake, HealerOptions{
		After: 40 * time.Millisecond,
		OnHeal: func(pid, r int, err error) {
			if err == nil {
				healed.Add(1)
				healedCh <- [2]int{pid, r}
			}
		},
	})
	h.Start()
	defer h.Stop()

	fake.set(0, 1, "dead")
	select {
	case got := <-healedCh:
		if got != [2]int{0, 1} {
			t.Fatalf("healed %v, want 0/1", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("healer never re-provisioned the dead replica")
	}
	if n := healed.Load(); n != 1 {
		t.Fatalf("healed %d replicas, want 1", n)
	}
	if s, _ := fake.ReplicaState(0, 1); s != "live" {
		t.Fatalf("state after heal = %q", s)
	}
}

func TestHealerLeavesHealthyReplicasAlone(t *testing.T) {
	fake := newFakeElastic()
	fake.set(0, 1, "replaying")
	var healed atomic.Uint64
	h := NewHealer(fake, HealerOptions{After: 10 * time.Millisecond, OnHeal: countHeals(&healed)})
	h.Start()
	time.Sleep(60 * time.Millisecond)
	h.Stop()
	if n := healed.Load(); n != 0 {
		t.Fatalf("healer re-provisioned %d healthy replicas", n)
	}
}

func TestHealerDisabledWithoutDeadline(t *testing.T) {
	h := NewHealer(newFakeElastic(), HealerOptions{})
	h.Start()
	h.Stop() // must not hang
}

func TestHealerStopWithoutStart(t *testing.T) {
	h := NewHealer(newFakeElastic(), HealerOptions{After: time.Second})
	h.Stop() // never started: must return, not wait on a loop that never ran
	h.Stop() // and stay idempotent
}

func TestHealerBacksOffAfterFailures(t *testing.T) {
	fake := newFakeElastic()
	fake.err = errors.New("node pool exhausted")
	fake.set(0, 1, "dead")
	var failed, healed atomic.Uint64
	h := NewHealer(fake, HealerOptions{
		After: 10 * time.Millisecond,
		OnHeal: func(_, _ int, err error) {
			if err != nil {
				failed.Add(1)
			} else {
				healed.Add(1)
			}
		},
	})
	h.Start()
	time.Sleep(500 * time.Millisecond)
	h.Stop()
	// A hot loop would retry on every deadline expiry: 500ms / 10ms ≈ 50
	// attempts. Exponential backoff (20, 40, 80, then the 160ms cap)
	// spaces them out to a handful.
	got := failed.Load()
	if got < 2 {
		t.Fatalf("healer gave up after %d failed attempts; want retries", got)
	}
	if got > 10 {
		t.Fatalf("healer hot-looped: %d failed attempts in 500ms despite backoff", got)
	}
	if n := healed.Load(); n != 0 {
		t.Fatalf("healed %d replicas with a permanently failing fake", n)
	}
}

func TestHealerResetsBackoffOnExternalRecovery(t *testing.T) {
	// Regression: the backoff doubles on *consecutive* failures, so a
	// replica that recovers by any non-healer path (operator
	// re-provision, restore, decommission) must drop its failure history
	// — otherwise its next death starts at the max backoff, and entries
	// for replicas that left the dead state for good leak forever.
	fake := newFakeElastic()
	h := NewHealer(fake, HealerOptions{After: 10 * time.Millisecond})
	key := [2]int{0, 1}
	h.fails[key] = 5
	h.notBefore[key] = time.Now().Add(time.Hour)
	h.firstDead[key] = time.Now()
	// The replica is observed live (it recovered without the healer).
	h.sweep(time.Now())
	if _, ok := h.fails[key]; ok {
		t.Fatal("fails survived an external recovery")
	}
	if _, ok := h.notBefore[key]; ok {
		t.Fatal("notBefore survived an external recovery")
	}
	if _, ok := h.firstDead[key]; ok {
		t.Fatal("firstDead survived an external recovery")
	}
}

// slowElastic blocks every re-provision until released, recording the
// maximum number in flight at once.
type slowElastic struct {
	mu          sync.Mutex
	states      map[[2]int]string
	inFlight    int
	maxInFlight int
	release     chan struct{}
}

func newSlowElastic(replicas int) *slowElastic {
	s := &slowElastic{states: map[[2]int]string{}, release: make(chan struct{})}
	for r := 0; r < replicas; r++ {
		s.states[[2]int{0, r}] = "dead"
	}
	return s
}

func (s *slowElastic) Partitions() int { return 1 }
func (s *slowElastic) Replicas(int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.states)
}
func (s *slowElastic) ReplicaState(pid, r int) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.states[[2]int{pid, r}], nil
}
func (s *slowElastic) ReprovisionReplica(pid, r int) error {
	s.mu.Lock()
	s.inFlight++
	if s.inFlight > s.maxInFlight {
		s.maxInFlight = s.inFlight
	}
	s.mu.Unlock()
	<-s.release
	s.mu.Lock()
	s.inFlight--
	s.states[[2]int{pid, r}] = "live"
	s.mu.Unlock()
	return nil
}

// TestHealerCapsConcurrentReprovisions: a correlated failure is healed one
// replica at a time — no two re-provisions overlap — and every replica is
// healed.
func TestHealerCapsConcurrentReprovisions(t *testing.T) {
	const replicas = 6
	fake := newSlowElastic(replicas)
	var healed atomic.Uint64
	h := NewHealer(fake, HealerOptions{After: 5 * time.Millisecond, OnHeal: countHeals(&healed)})
	h.Start()
	// Every replica's deadline expires almost immediately; hold the first
	// rebuild long enough for the others to be due.
	time.Sleep(100 * time.Millisecond)
	close(fake.release)
	deadline := time.Now().Add(5 * time.Second)
	for healed.Load() < replicas {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d replicas healed", healed.Load(), replicas)
		}
		time.Sleep(time.Millisecond)
	}
	h.Stop()
	fake.mu.Lock()
	defer fake.mu.Unlock()
	if fake.maxInFlight != 1 {
		t.Fatalf("%d re-provisions in flight at once, want 1", fake.maxInFlight)
	}
	for key, state := range fake.states {
		if state != "live" {
			t.Fatalf("replica %v is %q after the heals", key, state)
		}
	}
}
