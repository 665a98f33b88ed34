// Package broker implements the coordination tier of the paper's
// "partitioned, replicated architecture with coordination handled by
// brokers that fan-out queries and gather results" (§2). A Broker routes
// user-keyed reads to the replica group that owns the user, load-balances
// across healthy replicas, and fans out non-keyed queries to every group.
//
// Replica groups are dynamic: the elastic placement subsystem grows a
// group on live scale-out (AddReplica), swaps a member's backing state on
// node replacement (ReplaceReplica), and permanently downs a member on
// decommission — member indices stay stable for the life of a partition,
// so health flags and the cluster's slot bookkeeping always agree on who
// is who.
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

// ErrNoReplica is returned when every replica of the owning group is
// marked down.
var ErrNoReplica = errors.New("broker: no healthy replica for partition")

// member is one replica slot of a group. The slot itself is stable;
// ReplaceReplica swaps rep under the group's write lock when a node is
// replaced.
type member struct {
	rep  Replica
	down atomic.Bool
}

// group is one partition's replica set with health flags. The members
// slice is guarded by mu (it grows on scale-out); the down flags are
// atomic so the health fast path never writes under the read lock.
type group struct {
	mu      sync.RWMutex
	members []*member
	next    atomic.Uint64 // round-robin cursor
}

// snapshot returns the current member list; the slice is never mutated in
// place (growth appends under mu), so holding it beyond the lock is safe.
func (g *group) snapshot() []*member {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.members
}

// Broker fronts all replica groups.
type Broker struct {
	part   partition.Partitioner
	groups []*group

	queries  atomic.Uint64
	failures atomic.Uint64
}

// New creates a broker for the given replica groups; groups[i] must hold
// the replicas of partition i. Every group needs at least one replica.
func New(part partition.Partitioner, groups [][]Replica) (*Broker, error) {
	if part == nil {
		return nil, fmt.Errorf("broker: partitioner is required")
	}
	if len(groups) != part.N() {
		return nil, fmt.Errorf("broker: have %d groups for %d partitions", len(groups), part.N())
	}
	b := &Broker{part: part}
	for i, rs := range groups {
		if len(rs) == 0 {
			return nil, fmt.Errorf("broker: partition %d has no replicas", i)
		}
		g := &group{}
		for _, r := range rs {
			g.members = append(g.members, &member{rep: r})
		}
		b.groups = append(b.groups, g)
	}
	return b, nil
}

// AddReplica appends a new member to partitionID's group — the read-path
// half of live scale-out. The member starts marked down; the cluster
// marks it up once its catch-up completes. Returns the new member's
// index.
func (b *Broker) AddReplica(partitionID int, rep Replica) (int, error) {
	if partitionID < 0 || partitionID >= len(b.groups) {
		return 0, fmt.Errorf("broker: partition %d out of range", partitionID)
	}
	if rep == nil {
		return 0, fmt.Errorf("broker: nil replica")
	}
	g := b.groups[partitionID]
	g.mu.Lock()
	defer g.mu.Unlock()
	m := &member{rep: rep}
	m.down.Store(true)
	// Append to a fresh slice so snapshots taken before the growth stay
	// immutable.
	members := make([]*member, len(g.members), len(g.members)+1)
	copy(members, g.members)
	g.members = append(members, m)
	return len(g.members) - 1, nil
}

// ReplaceReplica swaps the backing replica of an existing member — node
// replacement: same slot, new machine. The new member starts marked down,
// as an added one does, so no read reaches it before the cluster marks it
// up after catch-up.
func (b *Broker) ReplaceReplica(partitionID, idx int, rep Replica) error {
	if partitionID < 0 || partitionID >= len(b.groups) {
		return fmt.Errorf("broker: partition %d out of range", partitionID)
	}
	if rep == nil {
		return fmt.Errorf("broker: nil replica")
	}
	g := b.groups[partitionID]
	g.mu.Lock()
	defer g.mu.Unlock()
	if idx < 0 || idx >= len(g.members) {
		return fmt.Errorf("broker: replica %d out of range for partition %d", idx, partitionID)
	}
	// Swap inside a fresh member so readers holding an old snapshot keep a
	// consistent (rep, down) pair.
	m := &member{rep: rep}
	m.down.Store(true)
	members := make([]*member, len(g.members))
	copy(members, g.members)
	members[idx] = m
	g.members = members
	return nil
}

// RecommendationsFor routes the read to a healthy replica of the partition
// owning a, rotating round-robin for load spreading. Returns ErrNoReplica
// if the whole group is down.
func (b *Broker) RecommendationsFor(a graph.VertexID) ([]motif.Candidate, error) {
	g := b.groups[b.part.PartitionOf(a)]
	members := g.snapshot()
	n := len(members)
	start := int(g.next.Add(1)) % n
	for i := 0; i < n; i++ {
		m := members[(start+i)%n]
		if m.down.Load() {
			continue
		}
		b.queries.Add(1)
		return m.rep.RecommendationsFor(a), nil
	}
	b.failures.Add(1)
	return nil, ErrNoReplica
}

// FanOut invokes fn on one healthy replica of every partition group and
// returns the per-partition results, indexed by partition. Partitions with
// no healthy replica get a zero value and contribute to the returned error.
func FanOut[T any](b *Broker, fn func(r Replica) T) ([]T, error) {
	out := make([]T, len(b.groups))
	var wg sync.WaitGroup
	errs := make([]error, len(b.groups))
	for i, g := range b.groups {
		wg.Add(1)
		go func(i int, g *group) {
			defer wg.Done()
			members := g.snapshot()
			n := len(members)
			start := int(g.next.Add(1)) % n
			for j := 0; j < n; j++ {
				m := members[(start+j)%n]
				if m.down.Load() {
					continue
				}
				out[i] = fn(m.rep)
				return
			}
			errs[i] = fmt.Errorf("partition %d: %w", i, ErrNoReplica)
		}(i, g)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// MarkDown flags replica idx of the given partition as unhealthy; reads
// route around it until MarkUp.
func (b *Broker) MarkDown(partitionID, idx int) error {
	return b.setHealth(partitionID, idx, true)
}

// MarkUp restores a replica flagged by MarkDown.
func (b *Broker) MarkUp(partitionID, idx int) error {
	return b.setHealth(partitionID, idx, false)
}

func (b *Broker) setHealth(partitionID, idx int, down bool) error {
	if partitionID < 0 || partitionID >= len(b.groups) {
		return fmt.Errorf("broker: partition %d out of range", partitionID)
	}
	members := b.groups[partitionID].snapshot()
	if idx < 0 || idx >= len(members) {
		return fmt.Errorf("broker: replica %d out of range for partition %d", idx, partitionID)
	}
	members[idx].down.Store(down)
	return nil
}

// ReplicaHealthy reports whether the given replica is currently marked
// healthy. Out-of-range indices report false.
func (b *Broker) ReplicaHealthy(partitionID, idx int) bool {
	if partitionID < 0 || partitionID >= len(b.groups) {
		return false
	}
	members := b.groups[partitionID].snapshot()
	if idx < 0 || idx >= len(members) {
		return false
	}
	return !members[idx].down.Load()
}

// HealthyReplicas returns the number of healthy replicas for partitionID.
func (b *Broker) HealthyReplicas(partitionID int) int {
	if partitionID < 0 || partitionID >= len(b.groups) {
		return 0
	}
	n := 0
	for _, m := range b.groups[partitionID].snapshot() {
		if !m.down.Load() {
			n++
		}
	}
	return n
}

// Stats reports broker activity totals.
func (b *Broker) Stats() (queries, failures uint64) {
	return b.queries.Load(), b.failures.Load()
}
