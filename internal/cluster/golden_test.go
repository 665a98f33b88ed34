package cluster

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// testdata/MANIFEST was written by the encoder of PR 14 (commit 0f8c592,
// the last one with the stream-reader decode stack) from goldenManifest
// below; it pins the byte format across codec rewrites.

const goldenRunID = 0xfeedface12345678

func goldenManifest() manifest {
	return manifest{
		nextSeq: 300,
		segs: []segmentRef{
			{kind: segKindBase, seq: 290, offset: 1 << 33},
			{kind: segKindDelta, seq: 291, offset: 1<<33 + 17},
			{kind: segKindDelta, seq: 299, offset: 1<<33 + 40_000},
		},
	}
}

func TestGoldenManifestDecodesAndReencodes(t *testing.T) {
	golden := filepath.Join("testdata", "MANIFEST")
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loadManifest(golden, goldenRunID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, goldenManifest()) {
		t.Fatalf("MANIFEST decoded to %+v", got)
	}
	if foreign, err := loadManifest(golden, goldenRunID+1); err != nil || len(foreign.segs) != 0 {
		t.Fatalf("foreign-run load = %+v, %v; want empty", foreign, err)
	}
	re := manifestPath(t.TempDir())
	if err := got.write(re, goldenRunID); err != nil {
		t.Fatal(err)
	}
	if out, err := os.ReadFile(re); err != nil || !bytes.Equal(out, data) {
		t.Fatalf("re-encoded manifest differs from testdata/MANIFEST (%v)", err)
	}
	// The manifest has no checksum; truncation is what its decoder must catch.
	for cut := 0; cut < len(data); cut++ {
		p := manifestPath(t.TempDir())
		if err := os.WriteFile(p, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadManifest(p, goldenRunID); err == nil {
			t.Fatalf("%d-byte prefix of %d loaded", cut, len(data))
		}
	}
}
