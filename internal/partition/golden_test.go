package partition

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"motifstream/internal/codecutil"
	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
)

// testdata/base.seg and testdata/delta.seg were written by the encoders of
// PR 14 (commit 0f8c592, the last one with the stream-reader decode stack)
// from goldenBase and goldenDelta below. They pin the byte format across
// codec rewrites: a decoder that reads them to the expected state and an
// encoder that reproduces them byte for byte have not changed the format.

func goldenCand(user, item graph.VertexID, via []graph.VertexID, ts int64, prog string, score float64) motif.Candidate {
	return motif.Candidate{
		User: user, Item: item, Via: via,
		Trigger:      graph.Edge{Src: via[len(via)-1], Dst: item, Type: graph.Retweet, TS: ts},
		DetectedAtMS: ts + 3, Program: prog, Score: score,
	}
}

func goldenBase() *mapState {
	return &mapState{
		SweepClock: 1_700_000_000_123,
		Users: map[graph.VertexID][]motif.Candidate{
			7: {
				goldenCand(7, 900, []graph.VertexID{11, 12, 13}, 1_700_000_000_500, "diamond", 3),
				goldenCand(7, 901, []graph.VertexID{12, 1 << 40}, 1_700_000_000_900, "triangle-closure", 2.5),
			},
			300_000: {goldenCand(300_000, 900, []graph.VertexID{11}, 1_700_000_001_000, "diamond", 1)},
		},
		Items: map[graph.VertexID]uint64{900: 2, 901: 1, 1 << 50: 1 << 33},
		Targets: map[graph.VertexID][]dynstore.InEdge{
			900:     {{B: 11, TS: 1_700_000_000_100}, {B: 12, TS: 1_700_000_000_050}, {B: 13, TS: 1_700_000_000_500}},
			901:     {{B: 12, TS: 1_700_000_000_700}, {B: 1 << 40, TS: 1_700_000_000_900}},
			1 << 50: {{B: 1, TS: -5}},
		},
	}
}

func goldenDelta() *mapState {
	return &mapState{
		SweepClock: 1_700_000_060_000,
		Users: map[graph.VertexID][]motif.Candidate{
			7:  nil, // swept
			42: {goldenCand(42, 902, []graph.VertexID{13, 14}, 1_700_000_050_000, "fresh-follow", 2)},
		},
		Items: map[graph.VertexID]uint64{900: 3, 902: 1},
		Targets: map[graph.VertexID][]dynstore.InEdge{
			900: nil, // pruned empty
			902: {{B: 13, TS: 1_700_000_049_000}, {B: 14, TS: 1_700_000_050_000}},
		},
	}
}

// goldenComposed is goldenBase with goldenDelta applied, written out by hand.
func goldenComposed() *mapState {
	st := goldenBase()
	st.SweepClock = 1_700_000_060_000
	delete(st.Users, 7)
	st.Users[42] = goldenDelta().Users[42]
	st.Items[900], st.Items[902] = 3, 1
	delete(st.Targets, 900)
	st.Targets[902] = goldenDelta().Targets[902]
	return st
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestGoldenSegmentsDecodeAndReencode(t *testing.T) {
	base, delta := readGolden(t, "base.seg"), readGolden(t, "delta.seg")

	st, err := DecodeBase(base, nil)
	if err != nil {
		t.Fatalf("DecodeBase: %v", err)
	}
	if !statesEqual(st, goldenBase().segment()) {
		t.Fatalf("base.seg decoded to %+v", st)
	}
	var out bytes.Buffer
	out.Write(st.AppendBase(nil))
	if !bytes.Equal(out.Bytes(), base) {
		t.Fatal("re-encoded base differs from base.seg")
	}
	fp := st.Fingerprint()
	if trailer := binary.LittleEndian.Uint32(base[len(base)-4:]); fp != trailer {
		t.Fatalf("Fingerprint %08x, file trailer %08x", fp, trailer)
	}

	d, err := ParseDelta(delta, nil)
	if err != nil {
		t.Fatalf("ParseDelta: %v", err)
	}
	if !statesEqual(d, goldenDelta().segment()) {
		t.Fatalf("delta.seg decoded to %+v", d)
	}
	out.Reset()
	if _, err := d.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), delta) {
		t.Fatal("re-encoded delta differs from delta.seg")
	}
	if st = Merge(true, st, d); !statesEqual(st, goldenComposed().segment()) {
		t.Fatalf("base.seg + delta.seg composed to %+v", st)
	}
}

// TestSegmentPrefixesAndBitFlipsRejected is the exhaustive companion of the
// fuzz targets: no strict prefix and no single-bit flip of a valid segment
// decodes. The file-level CRC32C is checked over the whole buffer before
// anything is parsed and CRC32C detects every single-bit error, so the
// bit-flip half is exact rather than probabilistic.
func TestSegmentPrefixesAndBitFlipsRejected(t *testing.T) {
	decoders := map[string]func([]byte) error{
		"base.seg": func(b []byte) error {
			_, err := DecodeBase(b, nil)
			return err
		},
		"delta.seg": func(b []byte) error {
			_, err := ParseDelta(b, nil)
			return err
		},
	}
	for name, decode := range decoders {
		data := readGolden(t, name)
		if err := decode(data); err != nil {
			t.Fatalf("%s: pristine file rejected: %v", name, err)
		}
		for cut := 0; cut < len(data); cut++ {
			if decode(data[:cut]) == nil {
				t.Fatalf("%s: %d-byte prefix of %d decoded", name, cut, len(data))
			}
		}
		mut := append([]byte(nil), data...)
		for bit := 0; bit < 8*len(data); bit++ {
			mut[bit/8] ^= 1 << (bit % 8)
			if decode(mut) == nil {
				t.Fatalf("%s: flip of bit %d decoded", name, bit)
			}
			mut[bit/8] ^= 1 << (bit % 8)
		}
	}
}

// refDecode is the one-pass decoder the walk replaced, kept as the reference
// the walk's rejections are held to: it parses a base file, or with base
// false a delta file, straight into lists, field by field in the order the
// format lays them out, and returns the first error. The engine and D
// headers are spelled out here: they pin the format as the golden files do.
func refDecode(data []byte, base bool) error {
	prefix := "partition delta"
	if base {
		prefix = "partition checkpoint"
	}
	c := codecutil.NewCursor(data, prefix)
	c.Checked()
	if base {
		c.Header(partMagic, partSnapVersion)
	} else {
		c.Header(deltaMagic, deltaVersion)
		c.I("delta sweep clock")
	}
	var vias codecutil.Arena[graph.VertexID]
	var users codecutil.Run[graph.VertexID, []motif.Candidate]
	nUsers := c.Count("user count", 2)
	for i := 0; i < nUsers && c.Err == nil; i++ {
		a := graph.VertexID(c.U("log user"))
		list := make([]motif.Candidate, c.Count("log length", motif.MinCandidateBytes))
		for j := range list {
			motif.ReadCandidate(c, &vias, &list[j])
		}
		users = codecutil.AppendAscending(c, "log user", users, a, list)
	}
	var items codecutil.Run[graph.VertexID, uint64]
	nItems := c.Count("item count", 2)
	for i := 0; i < nItems && c.Err == nil; i++ {
		it := graph.VertexID(c.U("item id"))
		items = codecutil.AppendAscending(c, "item id", items, it, c.U("item counter"))
	}
	dMagic := [8]byte{'M', 'S', 'D', 'S', 'D', 'L', 0, 1}
	if base {
		c.Header([8]byte{'M', 'S', 'E', 'N', 'G', 'S', 0, 1}, 1)
		c.I("sweep clock")
		dMagic = [8]byte{'M', 'S', 'D', 'S', 'N', 'P', 0, 1}
	}
	c.Checked()
	c.Header(dMagic, 2)
	var targets dynstore.Targets
	count := c.Count("target count", 2)
	for i := 0; i < count && c.Err == nil; i++ {
		cid := graph.VertexID(c.U("target id"))
		list := make([]dynstore.InEdge, c.Count("target length", 2))
		prev := int64(0)
		for j := range list {
			list[j].B = graph.VertexID(c.U("entry source"))
			prev += c.I("entry timestamp")
			list[j].TS = prev
		}
		targets = codecutil.AppendAscending(c, "target id", targets, cid, list)
	}
	return c.Done()
}

// TestWalkPrefixesAndBitFlipsRejectedAsDecoded: the walk rejects every
// strict prefix and every single-bit flip of the golden segments with the
// error the one-pass decoder returns — at the checksum, which CRC32C makes
// exact. With the checksums recomputed, so that parsing reaches whatever the
// flip or the cut broke, it still fails exactly where and how the decoder
// does (or accepts exactly what the decoder accepts): each byte layout's
// checks moved into the walk unchanged.
func TestWalkPrefixesAndBitFlipsRejectedAsDecoded(t *testing.T) {
	for name, base := range map[string]bool{"base.seg": true, "delta.seg": false} {
		data := readGolden(t, name)
		dMagic := []byte("MSDSDL")
		if base {
			dMagic = []byte("MSDSNP")
		}
		dStart := bytes.Index(data, dMagic)
		if dStart < 0 {
			t.Fatalf("%s: no D section", name)
		}
		check := func(what string, b []byte) {
			t.Helper()
			_, err := walk(b, base)
			want := refDecode(b, base)
			if (err == nil) != (want == nil) || err != nil && err.Error() != want.Error() {
				t.Fatalf("%s, %s: walk says %v, the decoder %v", name, what, err, want)
			}
		}
		// resum recomputes b's D section trailer and file trailer in place.
		resum := func(b []byte) []byte {
			n := len(b)
			binary.LittleEndian.PutUint32(b[n-8:], codecutil.CRC32C(b[dStart:n-8]))
			binary.LittleEndian.PutUint32(b[n-4:], codecutil.CRC32C(b[:n-4]))
			return b
		}
		check("pristine", data)
		for cut := 0; cut < len(data); cut++ {
			check("prefix", data[:cut])
			prefix := append(append([]byte(nil), data[:cut]...), 0, 0, 0, 0)
			binary.LittleEndian.PutUint32(prefix[cut:], codecutil.CRC32C(data[:cut]))
			check("prefix under a valid file trailer", prefix)
		}
		mut := append([]byte(nil), data...)
		for bit := 0; bit < 8*len(data); bit++ {
			mut[bit/8] ^= 1 << (bit % 8)
			check("bit flip", mut)
			if bit/8 < len(data)-8 {
				check("bit flip under valid trailers", resum(append([]byte(nil), mut...)))
			}
			mut[bit/8] ^= 1 << (bit % 8)
		}
	}
}
