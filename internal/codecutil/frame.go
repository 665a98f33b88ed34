package codecutil

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Record framing shared by the WAL segments and the transport wire
// protocol: every frame is
//
//	u32 payload length | u32 CRC32C(payload) | payload
//
// The framing was born in internal/queue's WAL; it lives here so the
// networked transport can reuse the exact same codec without importing
// the queue package (and so both sides stay byte-compatible forever —
// a WAL record and a wire frame are the same thing at the byte level).

// FrameHeaderLen is the fixed per-frame header size.
const FrameHeaderLen = 8

// ErrFrameCorrupt is returned by ReadFrame when a frame's checksum does
// not match its payload or its length field is implausible (zero).
var ErrFrameCorrupt = errors.New("codecutil: frame corrupt")

// ErrFrameTooLarge is returned by ReadFrame when a frame's length field
// exceeds the caller's bound — on a socket this is either corruption or a
// hostile peer, and must fail before allocating the claimed length.
var ErrFrameTooLarge = errors.New("codecutil: frame exceeds size bound")

// EncodeFrameHeader fills hdr (at least FrameHeaderLen bytes) with the
// length and CRC32C of payload.
func EncodeFrameHeader(hdr []byte, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], CRC32C(payload))
}

// DecodeFrameHeader extracts the length and CRC fields from hdr.
func DecodeFrameHeader(hdr []byte) (n, crc uint32) {
	return binary.LittleEndian.Uint32(hdr[:4]), binary.LittleEndian.Uint32(hdr[4:8])
}

// WriteFrame writes one framed payload: header, then payload bytes.
func WriteFrame(w io.Writer, payload []byte) error {
	var hdr [FrameHeaderLen]byte
	EncodeFrameHeader(hdr[:], payload)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame from r, verifying the checksum. buf is an
// optional reuse buffer; the returned slice aliases it when it is large
// enough. The header is read into buf too (an array of ReadFrame's own would
// escape through r), so a caller that passes back the last payload's buffer
// reads without allocating. max bounds the accepted payload length (frames
// claiming more fail with ErrFrameTooLarge before any allocation). A clean
// EOF at a frame boundary returns io.EOF; EOF inside a frame returns
// io.ErrUnexpectedEOF — the caller decides whether a torn frame is a
// recoverable tail or a protocol failure.
func ReadFrame(r io.Reader, buf []byte, max uint32) ([]byte, error) {
	if cap(buf) < FrameHeaderLen {
		buf = make([]byte, FrameHeaderLen)
	}
	hdr := buf[:FrameHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("codecutil: frame header: %w", io.ErrUnexpectedEOF)
	}
	n, crc := DecodeFrameHeader(hdr)
	if n == 0 {
		return nil, fmt.Errorf("codecutil: zero-length frame: %w", ErrFrameCorrupt)
	}
	if n > max {
		return nil, fmt.Errorf("codecutil: frame length %d > bound %d: %w", n, max, ErrFrameTooLarge)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("codecutil: frame payload: %w", io.ErrUnexpectedEOF)
	}
	if CRC32C(payload) != crc {
		return nil, fmt.Errorf("codecutil: frame checksum mismatch: %w", ErrFrameCorrupt)
	}
	return payload, nil
}
