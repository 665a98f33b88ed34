package cluster

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"motifstream/internal/delivery"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
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

// testdata/delivery.state was written by the hub's persistDeliveryState at
// commit abb8c04, the last one whose encoders streamed through codecutil's
// writers, from goldenDeliveryOffsets and goldenDeliveryPipeline below (run
// id goldenRunID); it pins the hub's delivery file across codec rewrites.

var goldenDeliveryOffsets = []uint64{17, 1 << 35, 0}

func goldenDeliveryOptions() delivery.Options {
	return delivery.Options{
		DedupTTL: time.Hour, DedupCapacity: 16, MaxPerUserPerDay: 2,
		SleepStartHour: delivery.SleepDisabled, SleepEndHour: delivery.SleepDisabled,
	}
}

// goldenDeliveryPipeline holds four dedup entries and three budgets, one of
// them spent.
func goldenDeliveryPipeline() *delivery.Pipeline {
	p := delivery.NewPipeline(goldenDeliveryOptions())
	for _, c := range [][3]int64{{1, 2, 1_000}, {300_000, 1 << 40, 2_000}, {5, 10, 3_000}, {5, 11, 4_000}, {1, 2, 5_000}} {
		user, item := graph.VertexID(c[0]), graph.VertexID(c[1])
		p.Offer(motif.Candidate{User: user, Item: item, DetectedAtMS: c[2], Trigger: graph.Edge{Src: 1, Dst: item, TS: c[2]}}, 0)
	}
	return p
}

func TestGoldenDeliveryFilesDecodeAndReencode(t *testing.T) {
	state, err := os.ReadFile(filepath.Join("testdata", "delivery.state"))
	if err != nil {
		t.Fatal(err)
	}
	groups := len(goldenDeliveryOffsets)
	if got := appendDeliveryState(nil, goldenRunID, goldenDeliveryOffsets, goldenDeliveryPipeline()); !bytes.Equal(got, state) {
		t.Fatal("encoder output differs from testdata/delivery.state")
	}
	p := delivery.NewPipeline(goldenDeliveryOptions())
	offs, err := parseDeliveryState(state, goldenRunID, groups, p)
	if err != nil || !slices.Equal(offs, goldenDeliveryOffsets) {
		t.Fatalf("delivery.state decoded to %v, %v", offs, err)
	}
	if re := appendDeliveryState(nil, goldenRunID, offs, p); !bytes.Equal(re, state) {
		t.Fatal("re-encoded state differs from testdata/delivery.state")
	}
	if offs, err := parseDeliveryState(state, goldenRunID+1, groups, delivery.NewPipeline(goldenDeliveryOptions())); offs != nil || err != nil {
		t.Fatalf("foreign-run state = %v, %v; want nothing, no error", offs, err)
	}
	if _, err := parseDeliveryState(state, goldenRunID, groups+1, delivery.NewPipeline(goldenDeliveryOptions())); err == nil {
		t.Fatal("a state for another partition count loaded")
	}
	// Both sections are checksummed: no strict prefix loads.
	for cut := 0; cut < len(state); cut++ {
		if _, err := parseDeliveryState(state[:cut], goldenRunID, groups, delivery.NewPipeline(goldenDeliveryOptions())); err == nil {
			t.Fatalf("%d-byte prefix of %d loaded", cut, len(state))
		}
	}
}
