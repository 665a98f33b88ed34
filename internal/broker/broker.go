// Package broker implements the coordination tier of the paper's
// "partitioned, replicated architecture with coordination handled by
// brokers that fan-out queries and gather results" (§2). A Broker routes
// user-keyed reads to the replica group that owns the user, load-balances
// across the members that serve, and fans out non-keyed queries to every
// group.
//
// The broker keeps no health state of its own. A group's members are the
// owner's replica slots, and each answers Serving at the moment a read is
// routed: the slot's own state machine is the one record of who serves.
// Groups grow on live scale-out (AddReplica); member indices stay stable
// for the life of a partition.
package broker

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"motifstream/internal/graph"
	"motifstream/internal/motif"
	"motifstream/internal/partition"
)

// Replica is one copy of a partition served behind the broker: a
// *partition.Partition in process, or the hub's stand-in for one a worker
// runs, which asks over the slot's feed connection (internal/transport).
type Replica interface {
	// RecommendationsFor returns recent candidates for user a.
	RecommendationsFor(a graph.VertexID) []motif.Candidate
	// TopItems returns the replica's n most-recommended items.
	TopItems(n int) []partition.ItemCount
	// ID identifies the underlying partition.
	ID() int
}

// Member is one slot of a replica group. Serving returns the replica that
// answers reads for the slot right now, or false while the slot serves
// none (not attached, catching up, failed, removed).
type Member interface {
	Serving() (Replica, bool)
}

// ErrNoReplica is returned when no member of the owning group serves.
var ErrNoReplica = errors.New("broker: no healthy replica for partition")

// group is one partition's replica set. The members slice is guarded by mu
// (it grows on scale-out).
type group struct {
	mu      sync.RWMutex
	members []Member
	next    atomic.Uint64 // round-robin cursor
}

// serving returns a serving replica of the group, starting at the
// round-robin cursor. The members slice is never mutated in place (growth
// appends to a copy under mu), so it is safe to walk outside the lock.
func (g *group) serving() (Replica, bool) {
	g.mu.RLock()
	members := g.members
	g.mu.RUnlock()
	n := len(members)
	start := int(g.next.Add(1)) % n
	for i := 0; i < n; i++ {
		if r, ok := members[(start+i)%n].Serving(); ok {
			return r, true
		}
	}
	return nil, false
}

// Broker fronts all replica groups.
type Broker struct {
	part   partition.Partitioner
	groups []*group

	queries  atomic.Uint64
	failures atomic.Uint64
}

// New creates a broker for the given replica groups; groups[i] must hold
// the members of partition i. Every group needs at least one member.
func New(part partition.Partitioner, groups [][]Member) (*Broker, error) {
	if part == nil {
		return nil, fmt.Errorf("broker: partitioner is required")
	}
	if len(groups) != part.N() {
		return nil, fmt.Errorf("broker: have %d groups for %d partitions", len(groups), part.N())
	}
	b := &Broker{part: part}
	for i, ms := range groups {
		if len(ms) == 0 {
			return nil, fmt.Errorf("broker: partition %d has no replicas", i)
		}
		b.groups = append(b.groups, &group{members: ms})
	}
	return b, nil
}

// AddReplica appends a new member to partitionID's group — the read-path
// half of live scale-out. Returns the new member's index.
func (b *Broker) AddReplica(partitionID int, m Member) (int, error) {
	if partitionID < 0 || partitionID >= len(b.groups) {
		return 0, fmt.Errorf("broker: partition %d out of range", partitionID)
	}
	if m == nil {
		return 0, fmt.Errorf("broker: nil member")
	}
	g := b.groups[partitionID]
	g.mu.Lock()
	defer g.mu.Unlock()
	// Append to a fresh slice so walks over the old one stay valid.
	members := make([]Member, len(g.members), len(g.members)+1)
	copy(members, g.members)
	g.members = append(members, m)
	return len(g.members) - 1, nil
}

// RecommendationsFor routes the read to a serving replica of the partition
// owning a, rotating round-robin for load spreading. Returns ErrNoReplica
// if no member of the group serves.
func (b *Broker) RecommendationsFor(a graph.VertexID) ([]motif.Candidate, error) {
	r, ok := b.groups[b.part.PartitionOf(a)].serving()
	if !ok {
		b.failures.Add(1)
		return nil, ErrNoReplica
	}
	b.queries.Add(1)
	return r.RecommendationsFor(a), nil
}

// FanOut invokes fn on one serving replica of every partition group and
// returns the per-partition results, indexed by partition. Partitions with
// no serving replica get a zero value and contribute to the returned error.
func FanOut[T any](b *Broker, fn func(r Replica) T) ([]T, error) {
	out := make([]T, len(b.groups))
	var wg sync.WaitGroup
	errs := make([]error, len(b.groups))
	for i, g := range b.groups {
		wg.Add(1)
		go func(i int, g *group) {
			defer wg.Done()
			if r, ok := g.serving(); ok {
				out[i] = fn(r)
				return
			}
			errs[i] = fmt.Errorf("partition %d: %w", i, ErrNoReplica)
		}(i, g)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// Stats reports broker activity totals.
func (b *Broker) Stats() (queries, failures uint64) {
	return b.queries.Load(), b.failures.Load()
}
