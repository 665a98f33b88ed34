// Package audit is the detection-state provenance layer: an append-only
// per-replica log of (firehose offset, state fingerprint) records captured
// at checkpoint cuts, plus the cross-source verification that turns those
// records into a bit-equality proof. Detection is deterministic, so every
// replica of a group that has applied the same firehose prefix holds
// byte-identical recoverable state; the audit log pins that invariant to
// disk, and any two sources that recorded the same offset with different
// fingerprints expose a divergence — a recovery path that composed wrong
// state, a zombie cut, a torn base — that delivered-set oracles only catch
// probabilistically.
//
// The log is advisory, not load-bearing: records are appended without
// fsync, a torn or corrupt tail is silently ignored at read time, and a
// file stamped by a foreign run is discarded. Losing audit records can
// only weaken the audit, never corrupt recovery.
package audit

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"motifstream/internal/codecutil"
)

// auditMagic identifies the audit log format, version 1.
var auditMagic = [8]byte{'M', 'S', 'A', 'U', 'D', 'I', 'T', 1}

// headerSize is magic plus the little-endian run id.
const headerSize = len(auditMagic) + 8

// maxRecordSize bounds one encoded record: two uvarints plus the CRC.
const maxRecordSize = 2*binary.MaxVarintLen64 + 4

// Record is one audited cut: the firehose offset the cut covers (exclusive
// upper bound, i.e. the cut's nextOffset) and the CRC32C fingerprint of
// the replica's recoverable state at that offset.
type Record struct {
	Offset uint64
	Sum    uint32
}

// appendRecord encodes rec onto b: uvarint offset, uvarint sum, then a
// CRC32C over the two fields. Each record is self-framed and self-checked
// so a reader can stop cleanly at the first torn or corrupt tail.
func appendRecord(b []byte, rec Record) []byte {
	start := len(b)
	b = binary.AppendUvarint(b, rec.Offset)
	b = binary.AppendUvarint(b, uint64(rec.Sum))
	return codecutil.AppendChecksum(b, start)
}

// decodeRecord parses one record from b, returning it and the bytes
// consumed; ok is false when b holds no complete, checksum-valid record.
func decodeRecord(b []byte) (rec Record, n int, ok bool) {
	c := codecutil.NewCursor(b, "audit record")
	off, sum := c.U("offset"), c.U("sum")
	if sum > math.MaxUint32 {
		c.Fail("sum", fmt.Errorf("%d is wider than 32 bits", sum))
	}
	c.Trailer()
	return Record{Offset: off, Sum: uint32(sum)}, len(b) - c.Len(), c.Err == nil
}

// Log is an open audit log. Appends go straight to the file descriptor —
// no buffering, so concurrent readers (peer verification scans) see every
// completed record — and are not fsynced (the log is advisory).
type Log struct {
	f *os.File
}

// Open opens or creates the audit log at path, stamped with runID. An
// existing file with a matching header is appended to; a missing, foreign,
// or malformed header starts the file over (the old records indexed a log
// that no longer assigns these offsets).
func Open(path string, runID uint64) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("audit: open: %w", err)
	}
	var hdr [headerSize]byte
	_, err = io.ReadFull(f, hdr[:])
	if err == nil {
		var magic [8]byte
		copy(magic[:], hdr[:])
		if magic == auditMagic && binary.LittleEndian.Uint64(hdr[len(auditMagic):]) == runID {
			if _, err := f.Seek(0, io.SeekEnd); err != nil {
				f.Close()
				return nil, fmt.Errorf("audit: seek: %w", err)
			}
			return &Log{f: f}, nil
		}
	} else if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		f.Close()
		return nil, fmt.Errorf("audit: header: %w", err)
	}
	// Fresh, foreign, or torn header: restart the file under this run.
	if err := f.Truncate(0); err != nil {
		f.Close()
		return nil, fmt.Errorf("audit: truncate: %w", err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("audit: seek: %w", err)
	}
	copy(hdr[:], auditMagic[:])
	binary.LittleEndian.PutUint64(hdr[len(auditMagic):], runID)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("audit: header: %w", err)
	}
	return &Log{f: f}, nil
}

// Append writes one record. A record lands in a single write call, so a
// concurrent reader sees it completely or not at all.
func (l *Log) Append(rec Record) error {
	buf := make([]byte, 0, maxRecordSize)
	if _, err := l.f.Write(appendRecord(buf, rec)); err != nil {
		return fmt.Errorf("audit: append: %w", err)
	}
	return nil
}

// Close closes the log file.
func (l *Log) Close() error { return l.f.Close() }

// Read returns every valid record in the log at path that was stamped by
// runID. A missing file, a foreign or torn header, or zero valid records
// yields (nil, nil) — an absent audit is not an error. Decoding stops
// silently at the first torn or corrupt record.
func Read(path string, runID uint64) ([]Record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("audit: read: %w", err)
	}
	return Decode(b, runID), nil
}

// Decode parses an audit log image, returning the records stamped by
// runID; nil when the header is missing, foreign, or torn. Exported for
// the fuzz target — Decode must never panic on arbitrary input.
func Decode(b []byte, runID uint64) []Record {
	if len(b) < headerSize {
		return nil
	}
	var magic [8]byte
	copy(magic[:], b)
	if magic != auditMagic || binary.LittleEndian.Uint64(b[len(auditMagic):headerSize]) != runID {
		return nil
	}
	b = b[headerSize:]
	var recs []Record
	for len(b) > 0 {
		rec, n, ok := decodeRecord(b)
		if !ok {
			break
		}
		recs = append(recs, rec)
		b = b[n:]
	}
	return recs
}

// SourceSum is one source's recorded fingerprint at an offset.
type SourceSum struct {
	Source string
	Sum    uint32
}

// Mismatch is one offset at which recorded fingerprints disagree across
// sources — direct evidence that two recovery-equivalent replicas held
// different state after the same firehose prefix.
type Mismatch struct {
	Offset uint64
	Sums   []SourceSum
}

// Report summarizes a cross-source verification.
type Report struct {
	// Records is the total records read across sources; Offsets the
	// distinct offsets seen; Compared the offsets recorded by at least two
	// sources (the offsets that actually constrain anything).
	Records, Offsets, Compared int
	// Mismatches lists every compared offset whose sums disagree, offset
	// ascending. Empty means every comparable cut matched bit-for-bit.
	Mismatches []Mismatch
}

// Verify cross-checks recorded fingerprints from several sources
// (typically the replicas of one partition group, keyed by a replica
// label). Within one source, a re-recorded offset must also self-agree —
// e.g. a compacted base re-deriving a cut it covered live.
func Verify(bySource map[string][]Record) Report {
	type cell struct {
		sums    []SourceSum
		sources int
		differs bool
	}
	byOffset := make(map[uint64]*cell)
	var rep Report
	// Deterministic source order so mismatch output is stable.
	names := make([]string, 0, len(bySource))
	for name := range bySource {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		recs := bySource[name]
		rep.Records += len(recs)
		seen := make(map[uint64]bool, len(recs))
		for _, rec := range recs {
			c := byOffset[rec.Offset]
			if c == nil {
				c = &cell{}
				byOffset[rec.Offset] = c
			}
			if !seen[rec.Offset] {
				seen[rec.Offset] = true
				c.sources++
			}
			if len(c.sums) > 0 && c.sums[0].Sum != rec.Sum {
				c.differs = true
			}
			c.sums = append(c.sums, SourceSum{Source: name, Sum: rec.Sum})
		}
	}
	rep.Offsets = len(byOffset)
	offsets := make([]uint64, 0, len(byOffset))
	for off := range byOffset {
		offsets = append(offsets, off)
	}
	sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })
	for _, off := range offsets {
		c := byOffset[off]
		if c.sources >= 2 {
			rep.Compared++
		}
		if c.differs {
			rep.Mismatches = append(rep.Mismatches, Mismatch{Offset: off, Sums: c.sums})
		}
	}
	return rep
}
