package placement

import (
	"sync"
	"sync/atomic"
	"time"
)

// Elastic is the replica-lifecycle surface the auto-healer drives;
// *cluster.Cluster implements it. Kept as an interface so the policy
// loop stays decoupled from the mechanism (and trivially testable).
type Elastic interface {
	// Partitions returns the number of partitions.
	Partitions() int
	// Replicas returns the current replica count of partition pid,
	// decommissioned tombstones included.
	Replicas(pid int) int
	// ReplicaState reports "live", "replaying", "dead", or "removed".
	ReplicaState(pid, r int) (string, error)
	// ReprovisionReplica replaces a replica's node: fresh directory,
	// fresh S, state recovered from the partition's base pool plus log
	// replay.
	ReprovisionReplica(pid, r int) error
}

// HealerOptions configures the auto-healer.
type HealerOptions struct {
	// After is how long a replica may stay dead before the healer
	// re-provisions it. Required > 0.
	After time.Duration
	// Interval is the poll cadence; zero selects After/4, floored at
	// 10ms. Health polling is cheap (a state load per replica), so the
	// deadline resolution, not the poll cost, picks the cadence.
	Interval time.Duration
	// MaxConcurrent caps re-provisions in flight at once; zero selects 1.
	// Re-provisioning rebuilds a replica's whole state (base compose plus
	// log replay), so a correlated failure — a rack of nodes dying
	// together — must not fan out into a thundering herd of rebuilds all
	// competing for the log and the disk. Dead replicas beyond the cap
	// simply wait for a slot; their deadline has already expired.
	MaxConcurrent int
	// OnHeal, if set, observes every re-provision attempt (err is nil on
	// success). Called from a healer goroutine.
	OnHeal func(pid, r int, err error)
}

// maxBackoffFactor caps the exponential retry backoff a repeatedly failing
// replica accumulates, as a multiple of HealerOptions.After. After each
// failed re-provision the replica must wait After*2^failures (capped) on top
// of being observed dead for After again, so a placement that cannot be
// rebuilt — its partition's base pool gone, say — degrades to a slow periodic
// retry instead of hot-looping ReprovisionReplica.
const maxBackoffFactor = 16

// Healer is the optional self-managing policy loop: it watches replica
// health and re-provisions placements that stay dead past the deadline —
// the "node died, schedule a replacement" behavior of a production
// placement controller, without an operator in the loop. Repeated
// failures back off exponentially and concurrent re-provisions are
// capped (maxBackoffFactor, HealerOptions.MaxConcurrent), so correlated
// failures degrade to paced retries rather than a rebuild storm. It must
// be stopped before the cluster it drives is stopped (re-provisioning
// concurrent with Stop is undefined, like every lifecycle call).
type Healer struct {
	c    Elastic
	opts HealerOptions

	quit    chan struct{}
	done    chan struct{}
	once    sync.Once
	started atomic.Bool

	// mu guards the scheduling state below: the sweep loop reads and
	// dispatches under it, and heal goroutines record their outcome under
	// it when they finish.
	mu sync.Mutex
	// firstDead records when each replica was first observed dead; an
	// entry is cleared the moment the replica is observed in any other
	// state, so flapping replicas restart their deadline.
	firstDead map[[2]int]time.Time
	// inFlight marks replicas with a re-provision currently running;
	// len(inFlight) is the concurrency the MaxConcurrent cap bounds.
	inFlight map[[2]int]bool
	// fails counts consecutive re-provision failures per replica and
	// notBefore gates the next attempt (the exponential backoff). Both
	// are cleared by a successful heal.
	fails     map[[2]int]int
	notBefore map[[2]int]time.Time

	// healWG tracks heal goroutines so Stop can wait for them: a
	// re-provision still running after Stop returned could race the
	// cluster's own teardown.
	healWG sync.WaitGroup
}

// NewHealer builds a healer over c; call Start to run it.
func NewHealer(c Elastic, opts HealerOptions) *Healer {
	if opts.Interval <= 0 {
		opts.Interval = opts.After / 4
	}
	if opts.Interval < 10*time.Millisecond {
		opts.Interval = 10 * time.Millisecond
	}
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = 1
	}
	return &Healer{
		c:         c,
		opts:      opts,
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
		firstDead: make(map[[2]int]time.Time),
		inFlight:  make(map[[2]int]bool),
		fails:     make(map[[2]int]int),
		notBefore: make(map[[2]int]time.Time),
	}
}

// Start launches the policy loop. No-op if After <= 0 or already started.
func (h *Healer) Start() {
	if !h.started.CompareAndSwap(false, true) {
		return
	}
	if h.opts.After <= 0 {
		close(h.done)
		return
	}
	go h.run()
}

// Stop terminates the policy loop, waits for it to exit, and then waits
// for any re-provision still in flight (so no heal can race the
// teardown of the cluster the caller is about to stop). Safe to call
// multiple times, and safe on a healer that was never started (a Start
// racing in afterwards sees the closed quit and exits immediately).
func (h *Healer) Stop() {
	h.once.Do(func() { close(h.quit) })
	if !h.started.Load() {
		return
	}
	<-h.done
	h.healWG.Wait()
}

func (h *Healer) run() {
	defer close(h.done)
	ticker := time.NewTicker(h.opts.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-h.quit:
			return
		case now := <-ticker.C:
			h.sweep(now)
		}
	}
}

// sweep polls every replica's state and dispatches re-provisions for
// those dead past the deadline, eligible under their backoff, and within
// the concurrency cap.
func (h *Healer) sweep(now time.Time) {
	for pid := 0; pid < h.c.Partitions(); pid++ {
		for r := 0; r < h.c.Replicas(pid); r++ {
			key := [2]int{pid, r}
			state, err := h.c.ReplicaState(pid, r)
			h.mu.Lock()
			if h.inFlight[key] {
				// A heal is already running; its outcome resets the clocks.
				h.mu.Unlock()
				continue
			}
			if err != nil || state != "dead" {
				// Observed alive (or gone): reset the deadline clock AND
				// the failure history — the backoff doubles on
				// *consecutive* failures, and a replica that recovered by
				// any path (healer success, operator re-provision,
				// restore, decommission) starts over. This also keeps the
				// maps from accumulating entries for replicas that left
				// the dead state for good.
				delete(h.firstDead, key)
				delete(h.fails, key)
				delete(h.notBefore, key)
				h.mu.Unlock()
				continue
			}
			first, seen := h.firstDead[key]
			if !seen {
				h.firstDead[key] = now
				h.mu.Unlock()
				continue
			}
			if now.Sub(first) < h.opts.After || now.Before(h.notBefore[key]) {
				h.mu.Unlock()
				continue
			}
			if len(h.inFlight) >= h.opts.MaxConcurrent {
				// At the cap: leave the deadline expired; a free slot on a
				// later sweep picks the replica up immediately.
				h.mu.Unlock()
				continue
			}
			// Dispatch. Clear the dead entry either way — success moves
			// the replica out of dead, and a failure earns a fresh full
			// deadline (plus backoff) before the next attempt.
			delete(h.firstDead, key)
			h.inFlight[key] = true
			h.mu.Unlock()
			h.healWG.Add(1)
			go h.heal(key)
		}
	}
}

// heal runs one re-provision attempt and records its outcome.
func (h *Healer) heal(key [2]int) {
	defer h.healWG.Done()
	err := h.c.ReprovisionReplica(key[0], key[1])
	h.mu.Lock()
	delete(h.inFlight, key)
	if err != nil {
		h.fails[key]++
		h.notBefore[key] = time.Now().Add(h.backoff(h.fails[key]))
	} else {
		delete(h.fails, key)
		delete(h.notBefore, key)
	}
	h.mu.Unlock()
	if h.opts.OnHeal != nil {
		h.opts.OnHeal(key[0], key[1], err)
	}
}

// backoff returns After*2^fails clamped to maxBackoffFactor*After.
func (h *Healer) backoff(fails int) time.Duration {
	limit := maxBackoffFactor * h.opts.After
	d := h.opts.After
	for i := 0; i < fails; i++ {
		d *= 2
		if d >= limit || d <= 0 { // <= 0: overflow guard
			return limit
		}
	}
	return d
}
