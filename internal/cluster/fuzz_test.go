package cluster

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"motifstream/internal/delivery"
)

// The decoders of the files the hub and each replica directory keep beside
// the checkpoint segments. For each: arbitrary bytes never panic, and a value
// that decodes re-encodes to bytes that decode to the same value.

func addTestdata(f *testing.F, name string) {
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
}

func FuzzManifestFile(f *testing.F) {
	addTestdata(f, "MANIFEST")
	f.Add((&manifest{}).appendTo(nil, goldenRunID))
	f.Add((&manifest{nextSeq: 9}).appendTo(nil, goldenRunID+1))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data, goldenRunID)
		if err != nil {
			return
		}
		again, err := parseManifest(m.appendTo(nil, goldenRunID), goldenRunID)
		if err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("manifest %+v re-encoded decodes to %+v, %v", m, again, err)
		}
	})
}

func FuzzDeliveryStateFile(f *testing.F) {
	groups := len(goldenDeliveryOffsets)
	addTestdata(f, "delivery.state")
	f.Add(appendDeliveryState(nil, goldenRunID, make([]uint64, groups), delivery.NewPipeline(goldenDeliveryOptions())))
	f.Add(appendDeliveryState(nil, goldenRunID+1, goldenDeliveryOffsets, goldenDeliveryPipeline()))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := delivery.NewPipeline(goldenDeliveryOptions())
		offs, err := parseDeliveryState(data, goldenRunID, groups, p)
		if err != nil || offs == nil {
			return
		}
		re := appendDeliveryState(nil, goldenRunID, offs, p)
		q := delivery.NewPipeline(goldenDeliveryOptions())
		again, err := parseDeliveryState(re, goldenRunID, groups, q)
		if err != nil || !slices.Equal(again, offs) {
			t.Fatalf("offsets %v re-encoded decode to %v, %v", offs, again, err)
		}
		// The pipeline's encoding is canonical: equal bytes, equal state.
		if !bytes.Equal(appendDeliveryState(nil, goldenRunID, again, q), re) {
			t.Fatal("the re-encoded pipeline state decodes to another state")
		}
	})
}
