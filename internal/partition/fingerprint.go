package partition

import "encoding/binary"

// A state fingerprint is the CRC32C of the base-checkpoint *payload* of a
// partition's recoverable state — everything the base encoding writes
// before its file-level checksum trailer, which is to say the fingerprint
// IS the trailer value. (Hashing payload‖trailer instead would yield the
// CRC residue, the same constant for every state.) Because the base
// format is canonical (every section writes its keys in sorted order, and
// every field is stream-derived, so two replicas that applied the same
// firehose prefix hold byte-identical encodings), the fingerprint is a
// cheap equality witness:
//
//   - two replicas of a group agree at offset N iff their fingerprints at
//     N are equal;
//   - a base segment file on disk encodes state st iff its CRC-verified
//     last four bytes equal st.Fingerprint(), which is what lets the
//     scale-out go-live gate verify a pool-composed base against the
//     source replica's recorded cut without decoding anything.
//
// Computing one encodes the base and reads its trailer (FingerprintOf): it
// allocates one encoded base, or nothing when the caller appends the base
// into a buffer of its own that has room.

// FingerprintOf returns the fingerprint of the state an encoded base holds:
// its trailer.
func FingerprintOf(base []byte) uint32 {
	return binary.LittleEndian.Uint32(base[len(base)-4:])
}

// Fingerprint returns the CRC32C fingerprint of the state a base segment
// holds.
func (s *Segment) Fingerprint() uint32 { return FingerprintOf(s.AppendBase(nil)) }
