// Package codecutil holds the small helpers shared by the binary codecs
// (checkpoint segments, state files, WAL records, wire frames): streaming
// writers that count and hash so nested io.WriterTo sections compose, and
// one slice cursor (cursor.go) that every decoder reads through.
package codecutil

import (
	"bufio"
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

// HashWriter forwards writes to W while folding every byte into a CRC32C.
// Codecs wrap their payload writer with it and append Sum() as a trailer,
// so any later bit flip in the stored bytes is detected at decode.
type HashWriter struct {
	W   io.Writer
	crc uint32
}

// Write implements io.Writer.
func (h *HashWriter) Write(p []byte) (int, error) {
	n, err := h.W.Write(p)
	h.crc = crc32.Update(h.crc, castagnoli, p[:n])
	return n, err
}

// Sum returns the CRC32C of everything written so far.
func (h *HashWriter) Sum() uint32 { return h.crc }

// WriteChecksum appends sum as the 4-byte little-endian frame trailer.
func WriteChecksum(w io.Writer, sum uint32) error {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], sum)
	_, err := w.Write(buf[:])
	return err
}

// CountingWriter counts bytes written for the io.WriterTo contract.
type CountingWriter struct {
	W io.Writer
	N int64
}

// Write implements io.Writer.
func (c *CountingWriter) Write(p []byte) (int, error) {
	n, err := c.W.Write(p)
	c.N += int64(n)
	return n, err
}

// Writer is an error-latching varint writer: after the first failure
// every Put becomes a no-op and the error is reported once via Err.
type Writer struct {
	BW  *bufio.Writer
	Err error
	buf [binary.MaxVarintLen64]byte
}

// PutU writes v as a uvarint.
func (w *Writer) PutU(v uint64) {
	if w.Err != nil {
		return
	}
	n := binary.PutUvarint(w.buf[:], v)
	_, w.Err = w.BW.Write(w.buf[:n])
}

// PutI writes v as a zigzag varint.
func (w *Writer) PutI(v int64) {
	if w.Err != nil {
		return
	}
	n := binary.PutVarint(w.buf[:], v)
	_, w.Err = w.BW.Write(w.buf[:n])
}

// PutBytes writes b raw.
func (w *Writer) PutBytes(b []byte) {
	if w.Err != nil {
		return
	}
	_, w.Err = w.BW.Write(b)
}

// PutString writes a length-prefixed string.
func (w *Writer) PutString(s string) {
	w.PutU(uint64(len(s)))
	if w.Err == nil {
		_, w.Err = w.BW.WriteString(s)
	}
}

// Flush latches any flush error and returns the first error seen.
func (w *Writer) Flush() error {
	if w.Err == nil {
		w.Err = w.BW.Flush()
	}
	return w.Err
}
