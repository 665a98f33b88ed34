package delivery

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// testdata/delivery.state was written by the encoder of PR 14 (commit
// 0f8c592, the last one with the stream-reader decode stack) from
// goldenPipeline below; it pins the byte format across codec rewrites.

func goldenPipeline() *Pipeline {
	p := NewPipeline(stateOpts(16, 2))
	p.Offer(cand(1, 2, 1_000), 0)
	p.Offer(cand(300_000, 1<<40, 2_000), 0)
	p.Offer(cand(5, 10, 3_000), 0)
	p.Offer(cand(5, 11, 4_000), 0) // user 5's budget (2) is now spent
	p.Offer(cand(1, 2, 5_000), 0)  // duplicate: refreshes nothing, delivers nothing
	return p
}

func readGolden(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "delivery.state"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestGoldenStateDecodesAndReencodes(t *testing.T) {
	data := readGolden(t)
	if got := encodeState(t, goldenPipeline()); !bytes.Equal(got, data) {
		t.Fatal("encoder output differs from delivery.state")
	}
	dst := NewPipeline(stateOpts(16, 2))
	if err := restoreState(dst, data); err != nil {
		t.Fatalf("Restore: %v; file is %d bytes", err, len(data))
	}
	if got := encodeState(t, dst); !bytes.Equal(got, data) {
		t.Fatal("re-encoded restored state differs from delivery.state")
	}
	if d, _ := dst.Offer(cand(300_000, 1<<40, 6_000), 0); d != DroppedDuplicate {
		t.Fatalf("restored dedup entry = %v, want duplicate", d)
	}
	if d, _ := dst.Offer(cand(5, 12, 6_000), 0); d != DroppedFatigue {
		t.Fatalf("restored budget for user 5 = %v, want fatigue", d)
	}
}

// TestStatePrefixesAndBitFlipsRejected is the exhaustive companion of
// FuzzDeliveryStateReadFrom: no strict prefix and no single-bit flip of a
// valid snapshot decodes, and a rejected one leaves the pipeline untouched.
func TestStatePrefixesAndBitFlipsRejected(t *testing.T) {
	data := readGolden(t)
	dst := NewPipeline(stateOpts(16, 2))
	dst.Offer(cand(50, 50, 1_000), 0)
	want := encodeState(t, dst)
	for cut := 0; cut < len(data); cut++ {
		if err := restoreState(dst, data[:cut]); err == nil {
			t.Fatalf("%d-byte prefix of %d decoded", cut, len(data))
		}
	}
	mut := bytes.Clone(data)
	for bit := 0; bit < 8*len(data); bit++ {
		mut[bit/8] ^= 1 << (bit % 8)
		if err := restoreState(dst, mut); err == nil {
			t.Fatalf("flip of bit %d decoded", bit)
		}
		mut[bit/8] ^= 1 << (bit % 8)
	}
	if got := encodeState(t, dst); !bytes.Equal(got, want) {
		t.Fatal("rejected snapshots mutated the pipeline")
	}
}
