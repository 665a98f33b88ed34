package cluster

// Cluster-level surface of the fingerprint audit (internal/audit): the
// cross-replica verification method and the recorded-fingerprint lookup
// restore plans are checked against. All of it
// reads the per-replica audit logs the checkpoint writers append —
// concurrent reads are safe because records land in single appends and a
// torn tail decodes to nothing.

import (
	"fmt"

	"motifstream/internal/audit"
)

// ErrAuditDisabled is returned by the audit methods when the cluster was
// built without Config.Audit.
var ErrAuditDisabled = fmt.Errorf("cluster: audit requires Config.Audit (and Config.CheckpointDir)")

// auditSources snapshots partition pid's non-removed replica audit-log
// paths, keyed by a stable replica label.
func (c *Cluster) auditSources(pid int) map[string]string {
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	out := make(map[string]string)
	for _, s := range c.slots[pid] {
		if s.state.Load() == replicaRemoved || s.dir == "" {
			continue
		}
		out[fmt.Sprintf("r%02d-g%d", s.idx, s.gen)] = auditLogPath(s.dir)
	}
	return out
}

// VerifyFingerprints cross-checks every recorded state fingerprint across
// partition pid's replicas: at every offset two or more sources recorded
// (live cuts, compacted-base re-derivations, any incarnation), the sums
// must agree — detection is deterministic, so replicas that applied the
// same firehose prefix must hold bit-identical recoverable state. The
// returned report lists every disagreement; an empty Mismatches with a
// nonzero Compared is the bit-equality certificate for the offsets the
// group actually audited. Reading is safe while the cluster runs.
func (c *Cluster) VerifyFingerprints(pid int) (audit.Report, error) {
	if !c.audit {
		return audit.Report{}, ErrAuditDisabled
	}
	if pid < 0 || pid >= len(c.slots) {
		return audit.Report{}, fmt.Errorf("cluster: partition %d out of range", pid)
	}
	bySource := make(map[string][]audit.Record)
	for label, path := range c.auditSources(pid) {
		recs, err := audit.Read(path, c.runID)
		if err != nil {
			return audit.Report{}, fmt.Errorf("cluster: partition %d: %w", pid, err)
		}
		if recs != nil {
			bySource[label] = recs
		}
	}
	return audit.Verify(bySource), nil
}

// recordedFingerprints collects the fingerprint partition pid's replicas
// recorded at each cut offset — the audit input of a restore plan. When
// several records share an offset (peers, compaction re-derivations) the
// newest read wins — if they disagree with each other that surfaces
// through VerifyFingerprints; the plan's comparison catches disagreement
// with the composed state either way.
func (c *Cluster) recordedFingerprints(pid int) map[uint64]uint32 {
	out := make(map[uint64]uint32)
	for _, path := range c.auditSources(pid) {
		recs, err := audit.Read(path, c.runID)
		if err != nil {
			c.ckptErrors.Inc()
			continue
		}
		for _, rec := range recs {
			out[rec.Offset] = rec.Sum
		}
	}
	return out
}
