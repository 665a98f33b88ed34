package cluster

// Cluster-level surface of the fingerprint audit (internal/audit): the
// cross-replica verification method and the recorded-fingerprint lookup
// restore plans are checked against. All of it
// reads the per-replica audit logs the checkpoint writers append —
// concurrent reads are safe because records land in single appends and a
// torn tail decodes to nothing.

import (
	"fmt"
	"slices"

	"motifstream/internal/audit"
)

// ErrAuditDisabled is returned by the audit methods when the cluster was
// built without Config.Audit.
var ErrAuditDisabled = fmt.Errorf("cluster: audit requires Config.Audit (and Config.CheckpointDir)")

// auditSources names the audit logs of a partition's placements, keyed by
// a stable replica label.
func auditSources(placements []placed) map[string]string {
	out := make(map[string]string)
	for _, pl := range placements {
		out[fmt.Sprintf("r%02d-g%d", pl.idx, pl.gen)] = auditLogPath(pl.dir)
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
	h, err := c.hubTier()
	if err != nil {
		return audit.Report{}, err
	}
	if pid < 0 || pid >= len(h.slots) {
		return audit.Report{}, fmt.Errorf("cluster: partition %d out of range", pid)
	}
	bySource := make(map[string][]audit.Record)
	for label, path := range auditSources(h.placed(pid)) {
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

// recordedFingerprints collects the fingerprint a partition's replicas
// (sources: their audit logs) recorded at each cut offset — the audit input
// of a restore plan. Sources
// are read in label order, so the result does not depend on map iteration.
// Records that agree (peers, compaction re-derivations) collapse into one;
// an offset at which two records disagree is counted as one audit mismatch
// and left out: a disputed record is not evidence to judge a composed
// state against, and which side happened to be read last must not decide a
// restore verdict.
func (s *shared) recordedFingerprints(sources map[string]string) map[uint64]uint32 {
	labels := make([]string, 0, len(sources))
	for label := range sources {
		labels = append(labels, label)
	}
	slices.Sort(labels)
	out := make(map[uint64]uint32)
	disputed := make(map[uint64]bool)
	for _, label := range labels {
		recs, err := audit.Read(sources[label], s.runID)
		if err != nil {
			s.ckptErrors.Inc()
			continue
		}
		for _, rec := range recs {
			if sum, seen := out[rec.Offset]; seen && sum != rec.Sum && !disputed[rec.Offset] {
				disputed[rec.Offset] = true
				s.auditMismatches.Inc()
			}
			out[rec.Offset] = rec.Sum
		}
	}
	for off := range disputed {
		delete(out, off)
	}
	return out
}
