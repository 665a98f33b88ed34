package audit

import (
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"motifstream/internal/codecutil"
)

func logPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "audit.log")
}

func mustOpen(t *testing.T, path string, runID uint64) *Log {
	t.Helper()
	l, err := Open(path, runID)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestAppendReadRoundtrip(t *testing.T) {
	path := logPath(t)
	recs := []Record{
		{Offset: 0, Sum: 0},
		{Offset: 1, Sum: 0xdeadbeef},
		{Offset: 1 << 40, Sum: 0xffffffff},
		{Offset: ^uint64(0), Sum: 1},
	}
	l := mustOpen(t, path, 7)
	for _, rec := range recs {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], recs[i])
		}
	}
}

// TestRecordBytes pins the record layout byte for byte: uvarint offset,
// uvarint sum, then the CRC32C of the two, little-endian.
func TestRecordBytes(t *testing.T) {
	for _, tc := range []struct {
		rec  Record
		want string
	}{
		{Record{Offset: 0, Sum: 0}, "0000d27761f1"},
		{Record{Offset: 1234, Sum: 0xdeadbeef}, "d209effdb6f50daceb4822"},
		{Record{Offset: 1 << 40, Sum: 0xffffffff}, "808080808020ffffffff0f6ee5fe31"},
	} {
		if got := hex.EncodeToString(appendRecord(nil, tc.rec)); got != tc.want {
			t.Errorf("%+v encodes as %s, want %s", tc.rec, got, tc.want)
		}
		rec, n, ok := decodeRecord(append(appendRecord(nil, tc.rec), 0xff))
		if !ok || rec != tc.rec || n != len(tc.want)/2 {
			t.Errorf("%+v decodes as %+v, %d bytes, ok %v", tc.rec, rec, n, ok)
		}
	}
	// A sum above 32 bits is rejected even under a valid checksum.
	wide := binary.AppendUvarint(binary.AppendUvarint(nil, 1), 1<<32)
	if rec, _, ok := decodeRecord(binary.LittleEndian.AppendUint32(wide, codecutil.CRC32C(wide))); ok {
		t.Errorf("a 33-bit sum decoded as %+v", rec)
	}
}

func TestReopenSameRunAppends(t *testing.T) {
	path := logPath(t)
	l := mustOpen(t, path, 3)
	if err := l.Append(Record{Offset: 10, Sum: 1}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l = mustOpen(t, path, 3)
	if err := l.Append(Record{Offset: 20, Sum: 2}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	got, err := Read(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Offset != 10 || got[1].Offset != 20 {
		t.Fatalf("reopen lost records: %+v", got)
	}
}

func TestForeignRunRestartsFile(t *testing.T) {
	path := logPath(t)
	l := mustOpen(t, path, 3)
	l.Append(Record{Offset: 10, Sum: 1})
	l.Close()

	// A new run over the same directory must not inherit offsets the old
	// run's log assigned.
	l = mustOpen(t, path, 4)
	l.Append(Record{Offset: 5, Sum: 9})
	l.Close()
	if got, _ := Read(path, 3); got != nil {
		t.Fatalf("old run's records survived a restart: %+v", got)
	}
	got, err := Read(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || (got[0] != Record{Offset: 5, Sum: 9}) {
		t.Fatalf("new run's records wrong: %+v", got)
	}
}

func TestTornHeaderAndMissingFile(t *testing.T) {
	path := logPath(t)
	if got, err := Read(path, 1); err != nil || got != nil {
		t.Fatalf("missing file: got %+v, %v; want nil, nil", got, err)
	}
	if err := os.WriteFile(path, []byte("MSAUD"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := Read(path, 1); err != nil || got != nil {
		t.Fatalf("torn header: got %+v, %v; want nil, nil", got, err)
	}
	// Open over the torn header restarts cleanly.
	l := mustOpen(t, path, 1)
	l.Append(Record{Offset: 1, Sum: 2})
	l.Close()
	if got, _ := Read(path, 1); len(got) != 1 {
		t.Fatalf("restart over torn header: %+v", got)
	}
}

func TestTornTailIsIgnored(t *testing.T) {
	path := logPath(t)
	l := mustOpen(t, path, 5)
	l.Append(Record{Offset: 100, Sum: 0xaa})
	l.Append(Record{Offset: 200, Sum: 0xbb})
	l.Close()

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the file at every length from "whole" down to the bare header:
	// the reader must return a clean prefix of the records, never an
	// error, never garbage.
	for cut := len(b); cut >= headerSize; cut-- {
		got := Decode(b[:cut], 5)
		if len(got) > 2 {
			t.Fatalf("cut %d: %d records from a 2-record log", cut, len(got))
		}
		if len(got) >= 1 && (got[0] != Record{Offset: 100, Sum: 0xaa}) {
			t.Fatalf("cut %d: first record corrupted: %+v", cut, got[0])
		}
		if len(got) == 2 && (got[1] != Record{Offset: 200, Sum: 0xbb}) {
			t.Fatalf("cut %d: second record corrupted: %+v", cut, got[1])
		}
	}
}

func TestCorruptRecordStopsDecode(t *testing.T) {
	path := logPath(t)
	l := mustOpen(t, path, 5)
	l.Append(Record{Offset: 100, Sum: 0xaa})
	l.Append(Record{Offset: 200, Sum: 0xbb})
	l.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[headerSize] ^= 0xff // flip a byte inside the first record
	got := Decode(b, 5)
	if len(got) != 0 {
		// The flipped byte must fail the first record's CRC; decoding
		// stops there rather than resyncing into the second.
		t.Fatalf("decoded %+v through a corrupt record", got)
	}
}

func TestVerify(t *testing.T) {
	rep := Verify(map[string][]Record{
		"r00": {{Offset: 10, Sum: 1}, {Offset: 20, Sum: 2}, {Offset: 30, Sum: 3}},
		"r01": {{Offset: 10, Sum: 1}, {Offset: 20, Sum: 9}},
		"r02": {{Offset: 30, Sum: 3}},
	})
	if rep.Records != 6 || rep.Offsets != 3 || rep.Compared != 3 {
		t.Fatalf("report counts wrong: %+v", rep)
	}
	if len(rep.Mismatches) != 1 || rep.Mismatches[0].Offset != 20 {
		t.Fatalf("mismatches wrong: %+v", rep.Mismatches)
	}
	if len(rep.Mismatches[0].Sums) != 2 {
		t.Fatalf("mismatch sums wrong: %+v", rep.Mismatches[0].Sums)
	}
}

func TestVerifySelfDisagreement(t *testing.T) {
	// One source re-recording an offset with a different sum (a compacted
	// base re-deriving a live cut) is a mismatch even with no peer.
	rep := Verify(map[string][]Record{
		"r00": {{Offset: 10, Sum: 1}, {Offset: 10, Sum: 2}},
	})
	if rep.Compared != 0 {
		t.Fatalf("single source counted as compared: %+v", rep)
	}
	if len(rep.Mismatches) != 1 || rep.Mismatches[0].Offset != 10 {
		t.Fatalf("self-disagreement not flagged: %+v", rep)
	}
}

func TestVerifyEmpty(t *testing.T) {
	rep := Verify(nil)
	if rep.Records != 0 || rep.Offsets != 0 || rep.Compared != 0 || rep.Mismatches != nil {
		t.Fatalf("empty verify not zero: %+v", rep)
	}
}

// FuzzAuditRecords drives Decode with arbitrary bytes: it must never
// panic, and whatever records it accepts must re-encode to a log image
// that decodes to the same records (the codec is a proper injection on
// its accepted set).
func FuzzAuditRecords(f *testing.F) {
	var seed []byte
	seed = append(seed, auditMagic[:]...)
	seed = binary.LittleEndian.AppendUint64(seed, 42)
	seed = appendRecord(seed, Record{Offset: 1234, Sum: 0xdeadbeef})
	seed = appendRecord(seed, Record{Offset: 1 << 33, Sum: 7})
	f.Add(seed, uint64(42))
	f.Add([]byte{}, uint64(0))
	f.Add(seed[:headerSize+3], uint64(42))
	f.Fuzz(func(t *testing.T, b []byte, runID uint64) {
		recs := Decode(b, runID)
		// Roundtrip: rebuild a clean log image from the accepted records
		// and decode it back.
		img := make([]byte, 0, headerSize+len(recs)*maxRecordSize)
		img = append(img, auditMagic[:]...)
		img = binary.LittleEndian.AppendUint64(img, runID)
		for _, rec := range recs {
			img = appendRecord(img, rec)
		}
		got := Decode(img, runID)
		if len(got) != len(recs) {
			t.Fatalf("roundtrip lost records: %d -> %d", len(recs), len(got))
		}
		for i := range recs {
			if got[i] != recs[i] {
				t.Fatalf("roundtrip record %d: %+v -> %+v", i, recs[i], got[i])
			}
		}
	})
}
