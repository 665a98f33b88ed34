package queue

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"motifstream/internal/codecutil"
)

// The segments under testdata hold the ints 7, 1007, …, 5007 as intWAL
// marshals them. wal-v1.seg was written by the format-1 writer, with a
// nonzero simulated delay in every record's 8-byte prefix; wal-v2.seg by this
// writer.
const goldenRecords = 6

func goldenMsg(i int) int { return 1000*i + 7 }

// goldenDir copies a golden segment into a fresh log directory as its first
// segment, keeping only its first keep bytes (all of them when keep < 0).
func goldenDir(t *testing.T, file string, keep int) (dir string, data []byte) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	if keep >= 0 {
		data = data[:keep]
	}
	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-00000000000000000000.seg"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, data
}

func checkMsgs(t *testing.T, w *WAL[int], n int) {
	t.Helper()
	got := readAll(t, w, 0)
	if len(got) != n {
		t.Fatalf("read %d records, want %d", len(got), n)
	}
	for i, r := range got {
		if r.Msg != goldenMsg(i) {
			t.Fatalf("record %d = %d, want %d", i, r.Msg, goldenMsg(i))
		}
	}
}

// TestWALGolden pins both segment formats. A version-1 segment reads back
// with its delay prefixes skipped; appends to it pad the prefix with zeros, a
// reopen reads old and new records alike, and the rotation after it starts a
// version-2 segment. The version-2 writer reproduces its golden byte for
// byte.
func TestWALGolden(t *testing.T) {
	t.Run("v1", func(t *testing.T) {
		dir, old := goldenDir(t, "wal-v1.seg", -1)
		w := intWAL(t, dir, nil)
		checkMsgs(t, w, goldenRecords)
		for i := goldenRecords; i < goldenRecords+2; i++ {
			if err := w.Append(Record[int]{Msg: goldenMsg(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, "wal-00000000000000000000.seg"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, old) {
			t.Fatal("appending rewrote the version-1 segment's records")
		}
		const rec = walRecHeader + walV1Prefix + 8
		if len(data) != len(old)+2*rec {
			t.Fatalf("two appends grew the segment by %d bytes, want %d", len(data)-len(old), 2*rec)
		}
		for k, tail := 0, data[len(old):]; k < 2; k, tail = k+1, tail[rec:] {
			n, _ := codecutil.DecodeFrameHeader(tail)
			prefix := tail[walRecHeader : walRecHeader+walV1Prefix]
			if n != walV1Prefix+8 || !bytes.Equal(prefix, make([]byte, walV1Prefix)) {
				t.Fatalf("appended record %d: length %d, prefix %x; want 16 and zeros", k, n, prefix)
			}
		}

		// A reopen reads both; the next rotation starts a version-2 segment.
		w = intWAL(t, dir, func(o *WALOptions[int]) { o.SegmentBytes = int64(len(data)) })
		checkMsgs(t, w, goldenRecords+2)
		for i := goldenRecords + 2; i < goldenRecords+4; i++ {
			if err := w.Append(Record[int]{Msg: goldenMsg(i)}); err != nil {
				t.Fatal(err)
			}
		}
		checkMsgs(t, w, goldenRecords+4)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if len(segs) != 2 {
			t.Fatalf("%d segments, want the version-1 one and a rotated one", len(segs))
		}
		fresh, err := os.ReadFile(segs[1])
		if err != nil {
			t.Fatal(err)
		}
		if [8]byte(fresh[:8]) != walMagic || len(fresh) != walHeaderLen+walRecHeader+8 {
			t.Fatalf("rotated segment: magic %q, %d bytes; want version 2 holding one 8-byte record", fresh[:8], len(fresh))
		}
		w = intWAL(t, dir, nil)
		checkMsgs(t, w, goldenRecords+4)
		w.Close()
	})

	t.Run("v2", func(t *testing.T) {
		// The golden's header alone is an empty log with the golden's
		// identity: the same appends must give the golden's bytes.
		dir, _ := goldenDir(t, "wal-v2.seg", walHeaderLen)
		w := intWAL(t, dir, nil)
		for i := 0; i < goldenRecords; i++ {
			if err := w.Append(Record[int]{Msg: goldenMsg(i)}); err != nil {
				t.Fatal(err)
			}
		}
		checkMsgs(t, w, goldenRecords)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, "wal-00000000000000000000.seg"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "wal-v2.seg"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("writer output differs from the version-2 golden:\n got %x\nwant %x", got, want)
		}
	})
}

// segment builds a segment file: the header, then one CRC-valid record per
// payload.
func segment(magic [8]byte, first uint64, payloads ...[]byte) []byte {
	b := make([]byte, walHeaderLen)
	copy(b, magic[:])
	binary.LittleEndian.PutUint64(b[8:], 0x5eed)
	binary.LittleEndian.PutUint64(b[16:], first)
	for _, p := range payloads {
		var hdr [walRecHeader]byte
		codecutil.EncodeFrameHeader(hdr[:], p)
		b = append(append(b, hdr[:]...), p...)
	}
	return b
}

// TestWALShortRecords: a CRC-valid record no longer than its segment's
// prefix holds no message. In the newest segment it is a torn tail; in an
// older one a hole. Either way no Read slices past a payload — a 3-byte
// version-1 record used to open fine and then panic the first Read. Append
// refuses the empty message a version-2 record would need.
func TestWALShortRecords(t *testing.T) {
	for _, short := range [][]byte{{1, 2, 3}, make([]byte, walV1Prefix)} {
		dir := t.TempDir()
		tail := filepath.Join(dir, "wal-00000000000000000000.seg")
		if err := os.WriteFile(tail, segment(walMagicV1, 0, short), 0o644); err != nil {
			t.Fatal(err)
		}
		w := intWAL(t, dir, nil)
		if w.End() != 0 {
			t.Fatalf("%d-byte record: log ends at %d, want the record torn off", len(short), w.End())
		}
		if n, err := w.Read(0, make([]Record[int], 1)); n != 0 || err != nil {
			t.Fatalf("read of the empty log: %d, %v", n, err)
		}
		w.Close()

		if err := os.WriteFile(tail, segment(walMagicV1, 0, short), 0o644); err != nil {
			t.Fatal(err)
		}
		next := filepath.Join(dir, "wal-00000000000000000001.seg")
		if err := os.WriteFile(next, segment(walMagic, 1), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenWAL(emptyMsgOpts(dir)); !errors.Is(err, ErrWALCorrupt) {
			t.Fatalf("%d-byte record in an older segment: open = %v, want ErrWALCorrupt", len(short), err)
		}
	}

	w, err := OpenWAL(emptyMsgOpts(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(Record[int]{Msg: 1}); err == nil {
		t.Fatal("an empty message was appended; its record would read as a torn tail")
	}
}

// emptyMsgOpts configures a WAL whose messages marshal to no bytes.
func emptyMsgOpts(dir string) WALOptions[int] {
	return WALOptions[int]{
		Dir:       dir,
		Marshal:   func(int) ([]byte, error) { return nil, nil },
		Unmarshal: func([]byte) (int, error) { return 0, nil },
	}
}
