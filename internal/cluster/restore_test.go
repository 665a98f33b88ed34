package cluster

import (
	"bytes"
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"motifstream/internal/audit"
	"motifstream/internal/codecutil"
	"motifstream/internal/dynstore"
	"motifstream/internal/graph"
	"motifstream/internal/metrics"
	"motifstream/internal/partition"
	"motifstream/internal/queue"
)

// The planner suite drives planRestore directly over hand-built replica
// directories: no cluster, no goroutines — the decision is a function of
// what is on disk plus a handful of numbers, and is tested as one.

const planRunID = 0x5eed

// chainSeg describes one segment of a fixture chain. Every segment adds
// D target `offset` (so a composed state names exactly the cuts it folded
// in); corrupt flips a byte after the file and manifest are written.
type chainSeg struct {
	base    bool
	offset  uint64
	corrupt bool
}

// stateAt is the canonical state a fixture chain holds after folding in
// the cuts at the given (distinct) offsets: as a delta, stateAt(off) is the
// cut at off.
func stateAt(offsets ...uint64) *partition.Segment {
	st := &partition.Segment{}
	for _, off := range offsets {
		st.SweepClock = int64(off)
		st.Targets = append(st.Targets, targetEntry(graph.VertexID(off), dynstore.InEdge{B: 1, TS: int64(off)}))
	}
	return st
}

// targetEntry is one D target of a fixture segment; no edges is a tombstone.
func targetEntry(c graph.VertexID, list ...dynstore.InEdge) codecutil.Entry[graph.VertexID, []dynstore.InEdge] {
	return codecutil.Entry[graph.VertexID, []dynstore.InEdge]{Key: c, Val: list}
}

// writeChain materializes a chain in dir — segment files, then the manifest
// naming them — and returns the manifest it wrote.
func writeChain(t testing.TB, dir string, segs []chainSeg) manifest {
	t.Helper()
	var man manifest
	var folded []uint64
	for _, seg := range segs {
		folded = append(folded, seg.offset)
		ref := segmentRef{kind: segKindDelta, seq: man.nextSeq, offset: seg.offset}
		var data []byte
		if seg.base {
			ref.kind = segKindBase
			data = stateAt(folded...).AppendBase(nil)
		} else {
			data = stateAt(seg.offset).AppendDelta(nil)
		}
		if seg.corrupt {
			data[len(data)/2] ^= 0x40
		}
		if err := os.WriteFile(segmentPath(dir, ref), data, 0o644); err != nil {
			t.Fatal(err)
		}
		man.segs = append(man.segs, ref)
		man.nextSeq++
	}
	if len(segs) > 0 {
		if err := man.write(manifestPath(dir), planRunID); err != nil {
			t.Fatal(err)
		}
	}
	return man
}

// writeMirror drops a base holding the cuts up to offset into peerDir's
// mirror subdirectory, named under log identity id, and returns its pool
// entry.
func writeMirror(t testing.TB, peerDir string, id, offset uint64, corrupt bool) baseSource {
	t.Helper()
	mdir := filepath.Join(peerDir, mirrorSubdir)
	if err := os.MkdirAll(mdir, 0o755); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.Write(stateAt(offset).AppendBase(nil))
	data := buf.Bytes()
	if corrupt {
		data[len(data)/2] ^= 0x40
	}
	path := filepath.Join(mdir, mirrorName(id, 0, offset))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return baseSource{path: path, offset: offset}
}

// treeImage reads every file under root — the byte-identity witness for
// "planning writes nothing".
func treeImage(t testing.TB, root string) map[string]string {
	t.Helper()
	img := make(map[string]string)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			img[path+"/"] = ""
			return nil
		}
		data, err := os.ReadFile(path)
		img[path] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// assertSameTree fails unless two treeImages are byte-identical.
func assertSameTree(t testing.TB, before, after map[string]string) {
	t.Helper()
	if len(before) != len(after) {
		t.Fatalf("planning changed the tree: %d entries before, %d after", len(before), len(after))
	}
	for path, data := range before {
		if got, ok := after[path]; !ok || got != data {
			t.Fatalf("planning changed %s", path)
		}
	}
}

// planDirs creates a fresh root holding the planned replica's directory
// and one peer's (the pool's mirrors live there).
func planDirs(t testing.TB) (root, dir, peer string) {
	t.Helper()
	root = t.TempDir()
	dir = filepath.Join(root, "p000-r00")
	peer = filepath.Join(root, "p000-r01")
	for _, d := range []string{dir, peer} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	return root, dir, peer
}

// planRow is one planner scenario: a chain on disk, the pool's mirrors,
// the observations, and the plan they must produce.
type planRow struct {
	name    string
	chain   []chainSeg
	mirrors []uint64 // pool bases (in a peer's mirror dir), by offset
	// Observations; head defaults to 100.
	logStart, head uint64
	recorded       map[uint64]uint32

	wantErr                bool
	keep                   int
	offset, floor          uint64
	mustTrim, seeded       bool
	faults                 uint64
	folded                 []uint64 // cuts the installed state must hold; nil = scratch
	wantAudited, wantSplit bool
}

var cleanChain = []chainSeg{{base: true, offset: 10}, {offset: 20}, {offset: 30}}

func planRows(t testing.TB) []planRow {
	fp := func(offsets ...uint64) uint32 { return stateAt(offsets...).Fingerprint() }
	return []planRow{
		{name: "clean chain", chain: cleanChain, logStart: 10,
			keep: 3, offset: 30, floor: 10, folded: []uint64{10, 20, 30}},
		{name: "corrupt delta tail trims to the prefix",
			chain: []chainSeg{{base: true, offset: 10}, {offset: 20}, {offset: 30, corrupt: true}},
			keep:  2, offset: 20, floor: 10, faults: 1, folded: []uint64{10, 20}},
		{name: "corrupt base falls back to scratch",
			chain: []chainSeg{{base: true, offset: 10, corrupt: true}, {offset: 20}},
			keep:  0, offset: 0, floor: 0, faults: 1},
		{name: "chain cut past the head is clamped", chain: cleanChain, head: 25,
			keep: 2, offset: 20, floor: 10, mustTrim: true, faults: 1, folded: []uint64{10, 20}},
		{name: "replay point below the log start seeds from a pool mirror",
			chain:   []chainSeg{{base: true, offset: 10, corrupt: true}, {offset: 20}},
			mirrors: []uint64{25}, logStart: 15,
			keep: 0, offset: 25, floor: 25, seeded: true, faults: 1, folded: []uint64{25}},
		{name: "replay point below the log start with an empty pool is ErrTruncated",
			chain:    []chainSeg{{base: true, offset: 10, corrupt: true}, {offset: 20}},
			logStart: 15, wantErr: true},
		{name: "pool mirrors outside the retained log are not restore points",
			chain:   []chainSeg{{base: true, offset: 10, corrupt: true}},
			mirrors: []uint64{12, 120}, logStart: 15, wantErr: true},
		{name: "a fresh placement seeds from the pool's newest usable base",
			mirrors: []uint64{20, 40, 120},
			keep:    0, offset: 40, floor: 40, seeded: true, folded: []uint64{40}},
		{name: "a fresh placement with an empty pool replays from zero",
			keep: 0, offset: 0, floor: 0},
		{name: "a fresh placement above a compacted log with an empty pool is ErrTruncated",
			logStart: 5, wantErr: true},
		{name: "a chain without a base advertises floor zero",
			chain: []chainSeg{{offset: 20}, {offset: 30}},
			keep:  2, offset: 30, floor: 0, folded: []uint64{20, 30}},
		{name: "a recorded fingerprint that matches is audited clean",
			chain: cleanChain, recorded: map[uint64]uint32{30: fp(10, 20, 30)},
			keep: 3, offset: 30, floor: 10, folded: []uint64{10, 20, 30}, wantAudited: true},
		{name: "a recorded fingerprint that differs marks the plan diverged",
			chain: cleanChain, recorded: map[uint64]uint32{30: fp(10, 20)},
			keep: 3, offset: 30, floor: 10, folded: []uint64{10, 20, 30}, wantAudited: true, wantSplit: true},
		{name: "a pool base is audited by its trailer",
			mirrors: []uint64{40}, recorded: map[uint64]uint32{40: fp(40) ^ 1},
			keep: 0, offset: 40, floor: 40, seeded: true, folded: []uint64{40}, wantAudited: true, wantSplit: true},
	}
}

// materialize builds the row's directories under a fresh root and returns
// the root and the planner inputs.
func (row planRow) materialize(t testing.TB) (string, restoreInputs) {
	t.Helper()
	root, dir, peer := planDirs(t)
	writeChain(t, dir, row.chain)
	in := restoreInputs{
		dir: dir, runID: planRunID,
		logStart: row.logStart, head: row.head,
		recorded: row.recorded,
	}
	if in.head == 0 {
		in.head = 100
	}
	// basePool's order: newest offset first.
	for i := len(row.mirrors) - 1; i >= 0; i-- {
		in.pool = append(in.pool, writeMirror(t, peer, planRunID, row.mirrors[i], false))
	}
	return root, in
}

func TestPlanRestore(t *testing.T) {
	for _, row := range planRows(t) {
		t.Run(row.name, func(t *testing.T) {
			_, in := row.materialize(t)
			plan, err := planRestore(in)
			if row.wantErr {
				if !errors.Is(err, queue.ErrTruncated) {
					t.Fatalf("err = %v, want ErrTruncated", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(plan.man.segs) != len(row.chain) {
				t.Fatalf("plan carries %d manifest segments, disk has %d", len(plan.man.segs), len(row.chain))
			}
			if plan.keep != row.keep || plan.offset != row.offset || plan.floor != row.floor {
				t.Fatalf("keep/offset/floor = %d/%d/%d, want %d/%d/%d",
					plan.keep, plan.offset, plan.floor, row.keep, row.offset, row.floor)
			}
			if plan.mustTrim != row.mustTrim || (plan.seed != nil) != row.seeded || plan.faults != row.faults {
				t.Fatalf("mustTrim/seeded/faults = %v/%v/%d, want %v/%v/%d",
					plan.mustTrim, plan.seed != nil, plan.faults, row.mustTrim, row.seeded, row.faults)
			}
			if plan.audited != row.wantAudited || plan.diverged() != row.wantSplit {
				t.Fatalf("audited/diverged = %v/%v, want %v/%v", plan.audited, plan.diverged(), row.wantAudited, row.wantSplit)
			}
			if row.folded == nil {
				if plan.state != nil {
					t.Fatal("scratch plan carries a state")
				}
				return
			}
			if plan.state == nil {
				t.Fatal("plan carries no state")
			}
			var got, want bytes.Buffer
			got.Write(plan.state.AppendBase(nil))
			want.Write(stateAt(row.folded...).AppendBase(nil))
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("installed state is not the fold of cuts %v", row.folded)
			}
			if plan.seed != nil {
				if fp, ok := baseFingerprint(plan.seed); !ok || !bytes.Equal(plan.seed, want.Bytes()) {
					t.Fatalf("seed bytes are not the pool base at %d (fingerprint %08x ok=%v)", plan.offset, fp, ok)
				}
			}
		})
	}
}

// TestPlanRestoreWritesNothing is the planner's purity gate: for every
// scenario of the table — including the ones whose plans call for trims
// and seeds — the directory tree is byte-identical after planning.
func TestPlanRestoreWritesNothing(t *testing.T) {
	for _, row := range planRows(t) {
		t.Run(row.name, func(t *testing.T) {
			root, in := row.materialize(t)
			before := treeImage(t, root)
			planRestore(in)
			assertSameTree(t, before, treeImage(t, root))
		})
	}
}

// FuzzPlanRestore throws random chains, corruption masks, log bounds,
// pools and coverage observations at the planner and checks the
// invariants every caller leans on: a plan's replay point lies inside the
// retained log (or the error is ErrTruncated), the kept prefix is a prefix
// of the manifest, the advertised floor never exceeds the replay point, a
// scratch plan replays from zero — and planning wrote nothing.
func FuzzPlanRestore(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint16(0), uint16(60), uint16(0xffff))
	}
	f.Add(int64(3), uint16(40), uint16(90), uint16(0x0001))
	f.Fuzz(func(t *testing.T, seed int64, logStart, head, corruptMask uint16) {
		if logStart > head {
			logStart, head = head, logStart
		}
		rng := rand.New(rand.NewSource(seed))
		var chain []chainSeg
		off := uint64(rng.Intn(30))
		for i, n := 0, rng.Intn(6); i < n; i++ {
			off += uint64(1 + rng.Intn(25))
			chain = append(chain, chainSeg{
				base:    i == 0 && rng.Intn(3) > 0,
				offset:  off,
				corrupt: corruptMask&(1<<i) == 0 && rng.Intn(2) == 0,
			})
		}
		root, dir, peer := planDirs(t)
		man := writeChain(t, dir, chain)
		in := restoreInputs{
			dir: dir, runID: planRunID,
			logStart: uint64(logStart), head: uint64(head),
		}
		// Three draws the planner no longer reads, kept so every seed
		// builds the pool it always built.
		rng.Intn(2)
		rng.Intn(150)
		rng.Intn(2)
		seen := map[uint64]bool{}
		for i, n := 0, rng.Intn(4); i < n; i++ {
			o := uint64(rng.Intn(150))
			if seen[o] {
				continue
			}
			seen[o] = true
			in.pool = append(in.pool, writeMirror(t, peer, planRunID, o, corruptMask&(1<<(8+i)) == 0 && rng.Intn(3) == 0))
		}
		before := treeImage(t, root)
		plan, err := planRestore(in)
		assertSameTree(t, before, treeImage(t, root))
		if err != nil {
			if !errors.Is(err, queue.ErrTruncated) {
				t.Fatalf("planner error is not ErrTruncated: %v", err)
			}
			return
		}
		if plan.offset < in.logStart || plan.offset > in.head {
			t.Fatalf("replay point %d outside the retained log [%d, %d]", plan.offset, in.logStart, in.head)
		}
		if plan.keep > len(plan.man.segs) || len(plan.man.segs) != len(man.segs) {
			t.Fatalf("kept prefix %d of a %d-segment manifest (disk has %d)", plan.keep, len(plan.man.segs), len(man.segs))
		}
		if plan.floor > plan.offset {
			t.Fatalf("floor %d above replay point %d", plan.floor, plan.offset)
		}
		if plan.state == nil && (plan.offset != 0 || plan.seed != nil || plan.keep != 0) {
			t.Fatalf("scratch plan with offset %d keep %d seed %v", plan.offset, plan.keep, plan.seed != nil)
		}
		if plan.seed == nil && plan.state != nil && plan.offset != plan.man.segs[plan.keep-1].offset {
			t.Fatalf("chain plan replays from %d, kept prefix ends at %d", plan.offset, plan.man.segs[plan.keep-1].offset)
		}
	})
}

// TestRecordedFingerprintsDisputeIsDeterministic plants two replica audit
// logs that disagree at the cut offset a restore lands on. Which log a map
// iteration reads last must not decide the verdict: the disputed offset is
// counted as one audit mismatch per collection and withheld from the plan,
// so every run plans the same (unaudited) restore; the offset both logs
// agree on stays evidence.
func TestRecordedFingerprintsDisputeIsDeterministic(t *testing.T) {
	_, dir, peer := planDirs(t)
	writeChain(t, dir, cleanChain)
	right := stateAt(10, 20, 30).Fingerprint()
	for d, at30 := range map[string]uint32{dir: right, peer: right ^ 1} {
		alog, err := audit.Open(auditLogPath(d), planRunID)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range []audit.Record{{Offset: 20, Sum: 0xabcd}, {Offset: 30, Sum: at30}} {
			if err := alog.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := alog.Close(); err != nil {
			t.Fatal(err)
		}
	}
	reg := metrics.NewRegistry()
	c := &shared{
		runID:           planRunID,
		ckptErrors:      reg.Counter("ckpt_errors"),
		auditMismatches: reg.Counter("audit_mismatches"),
	}
	sources := auditSources([]placed{{idx: 0, dir: dir}, {idx: 1, dir: peer}})
	for run := uint64(1); run <= 50; run++ {
		recorded := c.recordedFingerprints(sources)
		if got := c.auditMismatches.Value(); got != run {
			t.Fatalf("run %d: %d mismatches counted, want one per collection", run, got)
		}
		if _, ok := recorded[30]; ok || recorded[20] != 0xabcd || len(recorded) != 1 {
			t.Fatalf("run %d: recorded = %v, want only the agreed offset 20", run, recorded)
		}
		plan, err := planRestore(restoreInputs{dir: dir, runID: planRunID, head: 100, recorded: recorded})
		if err != nil {
			t.Fatal(err)
		}
		if plan.offset != 30 || plan.audited || plan.diverged() {
			t.Fatalf("run %d: plan offset %d audited %v diverged %v, want an unaudited restore at 30",
				run, plan.offset, plan.audited, plan.diverged())
		}
	}
	if got := c.ckptErrors.Value(); got != 0 {
		t.Fatalf("%d checkpoint errors reading the planted logs", got)
	}
}
