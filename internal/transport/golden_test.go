package transport

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"motifstream/internal/codecutil"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
	"motifstream/internal/partition"
	"motifstream/internal/queue"
)

// wireGolden is one message as it crosses the socket in wire format version
// 4: testdata/<file> holds its frame — header (length, CRC32C) and payload —
// as this version's encoder wrote it. reencode decodes a payload and encodes
// the result again.
type wireGolden struct {
	file     string
	payload  []byte
	reencode func(payload []byte) ([]byte, error)
}

func wireGoldens() []wireGolden {
	return []wireGolden{
		{"hello_feed.frame", encodeHelloFeed(helloFeed{pid: 1, r: 2, gen: 3, floor: 300, resume: 4000}),
			func(p []byte) ([]byte, error) {
				wr := wireCursor(p[1:])
				h := decodeHelloFeed(wr)
				return encodeHelloFeed(h), wr.Err
			}},
		{"env_batch.frame", encodeEnvBatch(nil, logMeta{7, 100, 5}, []queue.Envelope[graph.Edge]{
			{Offset: 9, PubUnixNS: 123, Msg: graph.Edge{Src: 1, Dst: 2, Type: graph.Follow, TS: 42}},
			{Offset: 10, Msg: graph.Edge{Src: 300, Dst: 1 << 40, Type: graph.Retweet, TS: -7}},
		}), func(p []byte) ([]byte, error) {
			meta, envs, err := decodeEnvBatch(wireCursor(p[1:]), nil)
			return encodeEnvBatch(nil, meta, envs), err
		}},
		{"cand_batch.frame", encodeCandBatch(5, []CandMsg{
			{Pid: 1, Offset: 9, PubNS: 123, Cands: []motif.Candidate{
				{User: 42, Item: 6, Via: []graph.VertexID{7, 8}, Trigger: graph.Edge{Src: 8, Dst: 6, Type: graph.Follow, TS: 99}, DetectedAtMS: 99, Program: "diamond", Score: 2},
				{User: 43, Item: 6, Via: []graph.VertexID{8}, Trigger: graph.Edge{Src: 8, Dst: 6, Type: graph.Follow, TS: 99}, DetectedAtMS: 99, Program: "co-action", Score: 0.5},
			}},
			{Pid: 3, Offset: 1 << 40, Cands: []motif.Candidate{{User: 1 << 35, Item: 2, Program: "diamond", Score: 1}}},
		}), func(p []byte) ([]byte, error) {
			seq, msgs, err := decodeCandBatch(wireCursor(p[1:]), newCandDecoder())
			return encodeCandBatch(seq, msgs), err
		}},
		{"recs_req.frame", typeU2(msgRecsReq, 3, 42), reencodeReadReq},
		{"top_req.frame", typeU2(msgTopReq, 4, 10), reencodeReadReq},
		{"recs_resp.frame", encodeRecsResp(3, []motif.Candidate{
			{User: 42, Item: 6, Via: []graph.VertexID{7, 8}, Trigger: graph.Edge{Src: 8, Dst: 6, Type: graph.Follow, TS: 99}, DetectedAtMS: 99, Program: "diamond", Score: 2},
			{User: 42, Item: 9, Program: "fresh", Score: 0.5},
		}), func(p []byte) ([]byte, error) {
			id, cands, err := decodeRecsResp(wireCursor(p[1:]))
			return encodeRecsResp(id, cands), err
		}},
		{"top_resp.frame", encodeTopResp(4, []partition.ItemCount{{Item: 6, Count: 12}, {Item: 1 << 33, Count: 1}}),
			func(p []byte) ([]byte, error) {
				id, items, err := decodeTopResp(wireCursor(p[1:]))
				return encodeTopResp(id, items), err
			}},
	}
}

func reencodeReadReq(p []byte) ([]byte, error) {
	id, arg, err := decodeReadReq(wireCursor(p[1:]))
	return typeU2(p[0], id, arg), err
}

// readFrames returns the payloads of the four read messages among the
// goldens: both requests, both responses.
func readFrames() [][]byte {
	var out [][]byte
	for _, g := range wireGoldens()[3:] {
		out = append(out, g.payload)
	}
	return out
}

// TestWireGoldenFrames pins wire format version 4 at the byte level: each
// message encodes to its golden frame, and the golden frame reads back and
// decodes to a message that encodes to the same bytes.
func TestWireGoldenFrames(t *testing.T) {
	for _, g := range wireGoldens() {
		data, err := os.ReadFile(filepath.Join("testdata", g.file))
		if err != nil {
			t.Fatal(err)
		}
		var fb bytes.Buffer
		if err := codecutil.WriteFrame(&fb, g.payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fb.Bytes(), data) {
			t.Errorf("%s: encoder output differs from the golden frame", g.file)
			continue
		}
		payload, err := codecutil.ReadFrame(bytes.NewReader(data), nil, maxFrame)
		if err != nil {
			t.Fatalf("%s: %v", g.file, err)
		}
		again, err := g.reencode(payload)
		if err != nil || !bytes.Equal(again, payload) {
			t.Errorf("%s: decode and re-encode gave %x, %v; want the golden payload", g.file, again, err)
		}
	}
}
