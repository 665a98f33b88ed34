// Package placement is the elastic placement subsystem: it models each
// replica of the cluster as a *placement* on a virtual node (a "machine"
// slot) rather than as a fixed array index. The paper's MagicRecs
// deployment runs ~20 partitions × replicas on real machines, and real
// machines die and are *replaced*, not resurrected in place — so the
// subsystem owns three lifecycle facts the static topology cannot
// express:
//
//   - the **generation** of a placement: bumped every time the replica is
//     re-provisioned onto a new virtual node, naming a fresh on-disk
//     directory (the old machine's disk is gone with the machine);
//   - **membership** beyond the configured replica count: replicas added
//     by live scale-out and tombstones left by decommissioning, with
//     indices that stay stable for the life of the partition;
//   - the **auto-healer** policy loop (healer.go): watch replica health
//     and re-provision placements that stay dead past a deadline.
//
// The Table is durable (one small versioned file next to the checkpoint
// chains) so a whole-cluster restart rebuilds the same topology: a
// reprovisioned replica reopens its generation directory, an added
// replica is rebuilt, a decommissioned one stays gone. Like the
// checkpoint manifests it is gated by the cluster's run/log identity —
// a table describing a dead in-memory log describes nothing.
package placement

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"motifstream/internal/codecutil"
)

// tableMagic identifies the placement table format, version 1.
var tableMagic = [8]byte{'M', 'S', 'P', 'L', 'A', 'C', 0, 1}

const tableVersion = 1

// Placement is one replica assignment: partition and replica index plus
// the two lifecycle facts the static topology cannot express.
type Placement struct {
	Partition int
	Replica   int
	// Gen counts re-provisions: generation 0 is the placement the cluster
	// was constructed with, and every ReprovisionReplica bumps it,
	// selecting a fresh directory (see Dir).
	Gen int
	// Removed marks a decommissioned placement. Its index is never
	// reused — the tombstone keeps peer indices stable.
	Removed bool
}

// Dir names a placement's checkpoint directory under base. Generation 0
// keeps the legacy name (p000-r00) so existing deployments and tooling
// keep working; later generations append the generation so a replacement
// node never inherits the dead node's files.
func Dir(base string, pid, idx, gen int) string {
	if gen == 0 {
		return filepath.Join(base, fmt.Sprintf("p%03d-r%02d", pid, idx))
	}
	return filepath.Join(base, fmt.Sprintf("p%03d-r%02d-g%02d", pid, idx, gen))
}

// TablePath names the placement table file inside a checkpoint directory.
func TablePath(checkpointDir string) string {
	return filepath.Join(checkpointDir, "PLACEMENT")
}

// Table is the durable placement assignment for one cluster: every
// placement that differs from the default (generation 0, present). It
// persists itself on every mutation, so the on-disk file always describes
// the topology a restart must rebuild.
type Table struct {
	path  string
	runID uint64

	mu    sync.Mutex
	slots map[[2]int]Placement
}

type tableKey = [2]int

// NewTable returns an empty table that will persist to path gated by
// runID.
func NewTable(path string, runID uint64) *Table {
	return &Table{path: path, runID: runID, slots: make(map[tableKey]Placement)}
}

// Load reads the placement table at path. An absent file or one written
// by a different run/log identity loads as an empty table (fresh
// topology); malformed content returns an error and an empty table the
// caller may still use after counting the damage.
func Load(path string, runID uint64) (*Table, error) {
	t := NewTable(path, runID)
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return t, nil
		}
		return t, err
	}
	return t, t.decode(data)
}

// decode installs the table file data holds — nothing when another run wrote
// it. Malformed content returns an error and installs nothing.
func (t *Table) decode(data []byte) error {
	c := codecutil.NewCursor(data, "placement table")
	c.Header(tableMagic, tableVersion)
	fileRun := c.U("run id")
	count := c.Count("entry count", 4)
	entries := make(map[tableKey]Placement, count)
	for i := 0; i < count && c.Err == nil; i++ {
		pid := int(c.U("partition"))
		idx := int(c.U("replica"))
		gen := int(c.U("generation"))
		removed := c.U("removed") != 0
		entries[tableKey{pid, idx}] = Placement{Partition: pid, Replica: idx, Gen: gen, Removed: removed}
	}
	if c.Err != nil {
		return c.Err
	}
	if fileRun == t.runID {
		// Another run's topology is left out: its directories index a log
		// that died with that run (or a different durable log entirely).
		t.slots = entries
	}
	return nil
}

// save writes the table atomically (tmp + fsync + rename). Caller holds mu.
func (t *Table) save() error {
	return codecutil.ReplaceFile(t.path, t.appendTo(nil), true)
}

// appendTo appends the table's file format to b.
func (t *Table) appendTo(b []byte) []byte {
	b = codecutil.AppendHeader(b, tableMagic, tableVersion)
	b = binary.AppendUvarint(b, t.runID)
	keys := make([]tableKey, 0, len(t.slots))
	for k := range t.slots {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		p := t.slots[k]
		b = binary.AppendUvarint(b, uint64(p.Partition))
		b = binary.AppendUvarint(b, uint64(p.Replica))
		b = binary.AppendUvarint(b, uint64(p.Gen))
		removed := uint64(0)
		if p.Removed {
			removed = 1
		}
		b = binary.AppendUvarint(b, removed)
	}
	return b
}

// Get returns the placement for (pid, idx); absent entries are the
// default placement (generation 0, present).
func (t *Table) Get(pid, idx int) Placement {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p, ok := t.slots[tableKey{pid, idx}]; ok {
		return p
	}
	return Placement{Partition: pid, Replica: idx}
}

// Replicas returns the replica count the table records for pid — the
// highest assigned index plus one, tombstones included — or zero when the
// table holds nothing beyond the configured default.
func (t *Table) Replicas(pid int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for k := range t.slots {
		if k[0] == pid && k[1]+1 > n {
			n = k[1] + 1
		}
	}
	return n
}

// Bump records a re-provision: the placement's generation advances and
// the table persists before the new generation is returned, so a crash
// between the bump and the first write to the new directory still reopens
// the right (empty) directory rather than the dead node's.
func (t *Table) Bump(pid, idx int) (Placement, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.slots[tableKey{pid, idx}]
	if !ok {
		p = Placement{Partition: pid, Replica: idx}
	}
	if p.Removed {
		return p, fmt.Errorf("placement: %d/%d is decommissioned", pid, idx)
	}
	p.Gen++
	t.slots[tableKey{pid, idx}] = p
	if err := t.save(); err != nil {
		p.Gen--
		t.slots[tableKey{pid, idx}] = p
		return p, err
	}
	return p, nil
}

// Add records a scale-out: a brand-new placement at the given index
// (generation 0), persisted before it is returned.
func (t *Table) Add(pid, idx int) (Placement, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := tableKey{pid, idx}
	if _, ok := t.slots[key]; ok {
		return Placement{}, fmt.Errorf("placement: %d/%d already assigned", pid, idx)
	}
	p := Placement{Partition: pid, Replica: idx}
	t.slots[key] = p
	if err := t.save(); err != nil {
		delete(t.slots, key)
		return p, err
	}
	return p, nil
}

// Remove records a decommission: the placement becomes a tombstone (its
// index is never reused), persisted before returning.
func (t *Table) Remove(pid, idx int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := tableKey{pid, idx}
	p, ok := t.slots[key]
	if !ok {
		p = Placement{Partition: pid, Replica: idx}
	}
	if p.Removed {
		return fmt.Errorf("placement: %d/%d already decommissioned", pid, idx)
	}
	old, had := t.slots[key], ok
	p.Removed = true
	t.slots[key] = p
	if err := t.save(); err != nil {
		if had {
			t.slots[key] = old
		} else {
			delete(t.slots, key)
		}
		return err
	}
	return nil
}
