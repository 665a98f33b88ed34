package transport

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"motifstream/internal/codecutil"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
	"motifstream/internal/queue"
	"motifstream/internal/racetest"
)

// candBatches returns n candidate batches of msgs messages, each message four
// candidates with one to three Vias, every candidate naming one program — the
// shape of a steady stream's frames — and their encoded payloads.
func candBatches(n, msgs int) ([][]CandMsg, [][]byte) {
	rng := rand.New(rand.NewSource(1))
	batches := make([][]CandMsg, n)
	payloads := make([][]byte, n)
	for f := range batches {
		batch := make([]CandMsg, msgs)
		for i := range batch {
			trigger := graph.Edge{Src: graph.VertexID(rng.Intn(1 << 20)), Dst: graph.VertexID(rng.Intn(1 << 20)), Type: graph.Follow, TS: int64(f*msgs + i)}
			cands := make([]motif.Candidate, 4)
			for j := range cands {
				via := make([]graph.VertexID, 1+rng.Intn(3))
				for k := range via {
					via[k] = graph.VertexID(rng.Intn(1 << 20))
				}
				cands[j] = motif.Candidate{User: graph.VertexID(rng.Intn(1 << 20)), Item: trigger.Dst, Via: via,
					Trigger: trigger, DetectedAtMS: trigger.TS, Program: "diamond", Score: float64(len(via))}
			}
			batch[i] = CandMsg{Pid: i % 4, Offset: uint64(f*msgs + i), PubNS: int64(f), Cands: cands}
		}
		batches[f] = batch
		payloads[f] = encodeCandBatch(uint64(f+1), batch)
	}
	return batches, payloads
}

// TestDecodeCandBatchAllocBudget gates what a candidate connection pays to
// decode: 1 000 frames of 64 messages, each of four candidates with one to
// three Vias, cost at most 0.02 allocations a candidate through one decoder —
// the arena chunks plus the per-frame cursor and program name. Decoding each
// list and each Via into an array of its own costs 1.25 a candidate.
func TestDecodeCandBatchAllocBudget(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	_, payloads := candBatches(1_000, 64)
	dec := newCandDecoder()
	allocs := testing.AllocsPerRun(1, func() {
		for _, p := range payloads {
			if _, msgs, err := decodeCandBatch(wireCursor(p[1:]), dec); err != nil || len(msgs) != 64 {
				t.Fatalf("decoded %d messages: %v", len(msgs), err)
			}
		}
	})
	perCand := allocs / float64(len(payloads)*64*4)
	t.Logf("%.0f allocations for %d frames: %.4f a candidate", allocs, len(payloads), perCand)
	if perCand > 0.02 {
		t.Errorf("%.4f allocations a candidate, budget 0.02", perCand)
	}
}

// TestDecodedCandidatesOutliveLaterFrames pins what a decoded candidate may be
// used for: what one frame decoded into stays as decoded while the same
// connection decodes fifty more frames (the arenas are never reset or
// reused), and every list and Via is capacity-limited, so an append to one
// copies instead of writing into its neighbour's window.
func TestDecodedCandidatesOutliveLaterFrames(t *testing.T) {
	batches, payloads := candBatches(56, 64)
	dec := newCandDecoder()
	kept := make([][]CandMsg, len(payloads))
	for i, p := range payloads {
		_, msgs, err := decodeCandBatch(wireCursor(p[1:]), dec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(msgs, batches[i]) {
			t.Fatalf("frame %d decoded to something else", i)
		}
		kept[i] = slices.Clone(msgs) // the message list is the decoder's; the windows are not
	}
	unchanged := func(when string) {
		t.Helper()
		for i := range kept {
			if !reflect.DeepEqual(kept[i], batches[i]) {
				t.Fatalf("frame %d's candidates changed %s", i, when)
			}
		}
	}
	unchanged("while later frames were decoded")
	for _, msgs := range kept {
		for _, m := range msgs {
			if len(m.Cands) != cap(m.Cands) {
				t.Fatalf("candidate list has len %d, cap %d", len(m.Cands), cap(m.Cands))
			}
			_ = append(m.Cands, motif.Candidate{User: ^graph.VertexID(0)})
			for _, c := range m.Cands {
				if len(c.Via) != cap(c.Via) {
					t.Fatalf("Via has len %d, cap %d", len(c.Via), cap(c.Via))
				}
				_ = append(c.Via, ^graph.VertexID(0))
			}
		}
	}
	unchanged("when a list or a Via was appended to")
}

// FuzzCandBatchRoundTrip builds a sequence of candidate batches from the
// input, encodes each and decodes them in order through one connection's
// decoder: each must decode to what was encoded, and stay so while the frames
// after it are decoded.
func FuzzCandBatchRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 1, 0, 7, 7, 2, 200, 1, 9, 3, 3, 3, 3})
	f.Add(bytes.Repeat([]byte{5, 4, 3, 2, 1, 255}, 40))
	programs := []string{"", "diamond", "fresh-follow", "ü"}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		wide := func() uint64 { return uint64(next()) << (next() % 57) }
		batches := make([][]CandMsg, 1+next()%8)
		for i := range batches {
			var batch []CandMsg
			for n := next() % 6; n > 0; n-- {
				m := CandMsg{Pid: int(next()), Offset: wide(), PubNS: -int64(wide())}
				for c := next() % 5; c > 0; c-- {
					cand := motif.Candidate{User: graph.VertexID(wide()), Item: graph.VertexID(wide()),
						Trigger:      graph.Edge{Src: graph.VertexID(wide()), Dst: graph.VertexID(next()), Type: graph.EdgeType(next()), TS: int64(wide())},
						DetectedAtMS: -int64(next()), Program: programs[next()%4], Score: float64(int8(next())) / 8}
					for v := next() % 4; v > 0; v-- {
						cand.Via = append(cand.Via, graph.VertexID(wide()))
					}
					m.Cands = append(m.Cands, cand)
				}
				batch = append(batch, m)
			}
			batches[i] = batch
		}

		dec := newCandDecoder()
		kept := make([][]CandMsg, len(batches))
		for i, batch := range batches {
			payload := encodeCandBatch(uint64(i+1), batch)
			seq, msgs, err := decodeCandBatch(wireCursor(payload[1:]), dec)
			if err != nil || seq != uint64(i+1) {
				t.Fatalf("frame %d: seq %d, %v", i, seq, err)
			}
			kept[i] = slices.Clone(msgs)
			for j := 0; j <= i; j++ {
				if len(kept[j]) != len(batches[j]) || len(batches[j]) > 0 && !reflect.DeepEqual(kept[j], batches[j]) {
					t.Fatalf("frame %d reads %+v after decoding frame %d, encoded %+v", j, kept[j], i, batches[j])
				}
			}
		}
	})
}

// envBatch returns n live envelopes, a full feed frame's worth at n = 64.
func envBatch(n int) []queue.Envelope[graph.Edge] {
	envs := make([]queue.Envelope[graph.Edge], n)
	for i := range envs {
		envs[i] = queue.Envelope[graph.Edge]{Offset: uint64(1000 + i), PubUnixNS: int64(i) << 30,
			Msg: graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(7 * i), Type: graph.Follow, TS: int64(i)}}
	}
	return envs
}

// TestEnvBatchFrameZeroAlloc: encoding an envelope batch into the feed's
// buffer and framing it through a warm connection writer allocates nothing.
func TestEnvBatchFrameZeroAlloc(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	envs := envBatch(64)
	c := &conn{bw: bufio.NewWriterSize(io.Discard, 64<<10)}
	var frame []byte
	if allocs := testing.AllocsPerRun(100, func() {
		frame = encodeEnvBatch(frame[:0], logMeta{7, 100, 5}, envs)
		if err := c.writeMsg(frame); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("encoding and writing an envelope batch allocates %.1f times, want 0", allocs)
	}
}

// repeatReader serves its bytes over and over.
type repeatReader struct {
	b   []byte
	off int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.b[r.off:])
	r.off = (r.off + n) % len(r.b)
	return n, nil
}

// TestReadMsgZeroAlloc: reading a frame into a warm connection allocates
// nothing — header and payload land in the buffer the last frame left.
func TestReadMsgZeroAlloc(t *testing.T) {
	if racetest.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	payload := encodeEnvBatch(nil, logMeta{7, 100, 5}, []queue.Envelope[graph.Edge]{{Offset: 9, Msg: graph.Edge{Src: 1, Dst: 2}}})
	var fb bytes.Buffer
	if err := codecutil.WriteFrame(&fb, payload); err != nil {
		t.Fatal(err)
	}
	c := &conn{br: bufio.NewReaderSize(&repeatReader{b: fb.Bytes()}, 64<<10)}
	if allocs := testing.AllocsPerRun(100, func() {
		if got, err := c.readMsg(); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("read %x, %v", got, err)
		}
	}); allocs != 0 {
		t.Fatalf("reading a frame allocates %.1f times, want 0", allocs)
	}
}
