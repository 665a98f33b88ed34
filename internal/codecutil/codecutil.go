// Package codecutil holds the small helpers shared by the binary codecs
// (checkpoint segments, state files, WAL records, wire frames). Both halves
// of every codec work on one whole buffer: an encoder appends its file or
// frame to a byte slice (the helpers below close a section with its CRC32C),
// and a decoder reads it through one slice cursor (cursor.go).
package codecutil

import (
	"encoding/binary"
	"hash/crc32"
	"io"
)

// castagnoli is the CRC32C polynomial table shared by every checksummed
// frame in the repository (checkpoint segments, WAL records). Castagnoli
// is hardware-accelerated on amd64/arm64, so hashing at write and verify
// at read costs well under a memory copy.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CRC32C returns the Castagnoli CRC of p.
func CRC32C(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// AppendHeader appends a file's magic and format version, as Cursor.Header
// reads them.
func AppendHeader(b []byte, magic [8]byte, version uint64) []byte {
	return binary.AppendUvarint(append(b, magic[:]...), version)
}

// AppendChecksum closes the section that starts at b[start:] with its
// 4-byte little-endian CRC32C trailer, as Cursor.Checked and Cursor.Trailer
// verify it.
func AppendChecksum(b []byte, start int) []byte {
	return binary.LittleEndian.AppendUint32(b, CRC32C(b[start:]))
}

// WriteTo writes b to w with io.WriterTo's results: how an encoder's
// io.WriterTo method wraps its append form.
func WriteTo(w io.Writer, b []byte) (int64, error) {
	n, err := w.Write(b)
	return int64(n), err
}
