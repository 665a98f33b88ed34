// Package transport is the TCP RPC layer that lets replicas and the
// delivery tier run as separate OS processes: a hub process owns the
// durable firehose log, the delivery pipeline, and the broker read path,
// while worker processes own replica detection state and dial in.
//
// The wire codec is the WAL's record framing (u32 length + CRC32C,
// hoisted into internal/codecutil), so a frame on the socket and a record
// in the log are the same bytes-level artifact. Every connection is dialed
// worker→hub, so a worker needs no listening socket. Besides a transient
// meta connection — one hello answered with the log's identity and bounds,
// then closed, which DialFeed makes once to learn which log it restores
// against — two long-lived kinds exist:
//
//   - feed: one per replica. The worker attaches to its slot with its
//     restore floor and a resume offset; the hub streams envelope batches
//     (coalesced up to the configured batch bound per frame) and the worker
//     reports floor advances and its go-live transition upstream on the
//     same socket. Reconnects resume idempotently: the worker re-hellos
//     with its current floor and next expected offset and drops anything
//     below it. Each accepted hello is one attachment, to which the hub
//     scopes the reports and the detach that follow it. The broker's reads
//     of the slot ride the same socket: the hub writes a request between
//     envelope batches and the worker answers upstream, after the batches
//     written before it.
//   - cands: one per worker. Candidate batches flow up with sequence
//     numbers and cumulative acks flow down; unacked batches are resent in
//     order after a reconnect. The hub's per-group monotonic offset filter
//     collapses the resulting at-least-once stream to exactly-once. A
//     worker's stop ends the stream with a FIN, once everything it offered
//     is acked, naming the slots it finished — each as a feed hello's body
//     (pid, r, gen, final restore floor, final offset) — and the hub acks
//     the FIN after handing those slots to its backend.
//
// Every message is one frame: a type byte followed by varint fields.
package transport

import (
	"encoding/binary"

	"motifstream/internal/codecutil"
	"motifstream/internal/graph"
	"motifstream/internal/motif"
	"motifstream/internal/partition"
	"motifstream/internal/queue"
)

// connMagic opens every transport connection, format version 5 (the
// candidate FIN names the worker's finished slots; version 4's was empty);
// an older peer fails the preamble check, so a mixed deployment is refused,
// not misparsed.
var connMagic = [8]byte{'M', 'S', 'T', 'P', 'T', 0, 0, 5}

// maxFrame bounds any accepted wire frame: larger claims are corruption
// or a hostile peer, rejected before allocation.
const maxFrame = 1 << 24

// Message types. One byte leads every frame payload.
const (
	msgHelloMeta   = 1  // worker→hub: request log identity/bounds
	msgMetaResp    = 2  // hub→worker: logID, head, logStart
	msgHelloFeed   = 3  // worker→hub: attach replica (pid, r, gen, floor, resume)
	msgFeedAck     = 4  // hub→worker: accepted; logID, head, logStart
	msgEnvBatch    = 5  // hub→worker: coalesced envelope batch
	msgEOS         = 6  // hub→worker: clean end of stream (cluster shutdown)
	msgFloorReport = 7  // worker→hub: durable restore floor
	msgLive        = 8  // worker→hub: replica finished catch-up
	msgHelloCands  = 9  // worker→hub: open candidate stream (logID)
	msgCandBatch   = 10 // worker→hub: candidate batch {seq, msgs}
	msgCandAck     = 11 // hub→worker: cumulative ack {seq}
	msgCandFin     = 12 // worker→hub: stream complete {finished slots}, close after ack
	// 13 and 14 are retired (version 2's read-connection hello and its
	// ack), as are 19 and 20 (a read-path probe); none is to be reused.
	msgRecsReq  = 15 // hub→worker on a feed: RecommendationsFor {id, user}
	msgRecsResp = 16 // worker→hub on a feed: {id, candidates}
	msgTopReq   = 17 // hub→worker on a feed: TopItems {id, n}
	msgTopResp  = 18 // worker→hub on a feed: {id, item counts}
	msgHelloErr = 21 // either side: hello rejected, message string
)

// wireCursor opens a frame payload for decoding — with the repository's one
// cursor, the same that decodes checkpoint files.
func wireCursor(payload []byte) *codecutil.Cursor {
	return codecutil.NewCursor(payload, "transport")
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// helloFeed is the feed attach request: the slot and its generation, the
// replica's restore floor, and the offset to stream from. A candidate FIN
// names each finished slot with the same fields: its final floor, and in
// resume the offset its feed ended at.
type helloFeed struct {
	pid, r, gen   int
	floor, resume uint64
}

func encodeHelloFeed(h helloFeed) []byte { return appendHelloFeed([]byte{msgHelloFeed}, h) }

func appendHelloFeed(b []byte, h helloFeed) []byte {
	b = binary.AppendUvarint(b, uint64(h.pid))
	b = binary.AppendUvarint(b, uint64(h.r))
	b = binary.AppendUvarint(b, uint64(h.gen))
	b = binary.AppendUvarint(b, h.floor)
	b = binary.AppendUvarint(b, h.resume)
	return b
}

func decodeHelloFeed(r *codecutil.Cursor) helloFeed {
	var h helloFeed
	h.pid = int(r.U("hello pid"))
	h.r = int(r.U("hello replica"))
	h.gen = int(r.U("hello gen"))
	h.floor = r.U("hello floor")
	h.resume = r.U("hello resume")
	return h
}

// encodeCandFin is the candidate stream's FIN: the count of finished slots,
// then each as a feed hello's body.
func encodeCandFin(slots []helloFeed) []byte {
	b := binary.AppendUvarint([]byte{msgCandFin}, uint64(len(slots)))
	for _, h := range slots {
		b = appendHelloFeed(b, h)
	}
	return b
}

func decodeCandFin(r *codecutil.Cursor) ([]helloFeed, error) {
	slots := make([]helloFeed, r.Count("fin slot count", 5))
	for i := 0; i < len(slots) && r.Err == nil; i++ {
		slots[i] = decodeHelloFeed(r)
	}
	return slots, r.Err
}

// logMeta carries the hub log's identity and bounds.
type logMeta struct {
	logID, head, start uint64
}

func appendLogMeta(b []byte, m logMeta) []byte {
	b = binary.AppendUvarint(b, m.logID)
	b = binary.AppendUvarint(b, m.head)
	b = binary.AppendUvarint(b, m.start)
	return b
}

func decodeLogMeta(r *codecutil.Cursor) logMeta {
	var m logMeta
	m.logID = r.U("log id")
	m.head = r.U("log head")
	m.start = r.U("log start")
	return m
}

// encodeEnvBatch appends to b the frame payload packing envelopes, prefixed
// with the hub's current log bounds so the worker's cached head/start stay
// fresh without extra round trips. A feed encodes every batch into the one
// buffer it passes back in.
func encodeEnvBatch(b []byte, meta logMeta, envs []queue.Envelope[graph.Edge]) []byte {
	b = append(b, msgEnvBatch)
	b = appendLogMeta(b, meta)
	b = binary.AppendUvarint(b, uint64(len(envs)))
	for _, env := range envs {
		b = binary.AppendUvarint(b, env.Offset)
		b = binary.AppendVarint(b, env.PubUnixNS)
		b = graph.AppendEdge(b, env.Msg)
	}
	return b
}

func decodeEnvBatch(r *codecutil.Cursor, dst []queue.Envelope[graph.Edge]) (logMeta, []queue.Envelope[graph.Edge], error) {
	meta := decodeLogMeta(r)
	n := r.Count("env count", 6)
	for i := 0; i < n && r.Err == nil; i++ {
		var env queue.Envelope[graph.Edge]
		env.Offset = r.U("env offset")
		env.PubUnixNS = r.I("env pub ns")
		env.Msg = graph.ReadEdge(r, "env edge")
		dst = append(dst, env)
	}
	return meta, dst, r.Err
}

// CandMsg is one event's worth of candidates from one replica: the group
// it came from and the firehose offset of the triggering event, so the
// delivery consumer can collapse the replicas' redundant emissions to
// exactly one batch per event per group — and derive its simulated queue
// delay from the offset. PubNS carries the triggering event's wall-clock
// publish time (zero for replayed events), letting the delivery tier
// measure real end-to-end detection latency.
type CandMsg struct {
	Pid    int
	Offset uint64
	PubNS  int64
	Cands  []motif.Candidate
	// Lease is Cands' hold on the chunks their replica issued them from; it
	// is not on the wire. Whoever finishes with a message — the hub's
	// delivery loop once it has offered or skipped the candidates, a
	// worker's forwarder once it has encoded them, an apply loop that never
	// sends them — releases it, once, and reads the candidates no more, so
	// that the replica's engine can issue their chunks again.
	Lease motif.Lease
}

// candDecoder owns the arrays decoded candidates are windows of: every
// candidate list and every Via is a three-index window of an arena chunk,
// which gives a decoded Via what one emitted in process promises its holder
// (motif.Candidate.Via): its backing array is shared with other candidates
// and never written again. These arrays are never reused either — a decoded
// message's Lease is the zero one — and live for as long as anyone holds a
// window of them. A candidate connection owns one
// decoder for its life, so decoding allocates per chunk, not per list; the
// zero decoder allocates each list at its own size, for one-off decodes. msgs
// is the message list decodeCandBatch reuses.
type candDecoder struct {
	cands codecutil.Arena[motif.Candidate]
	vias  codecutil.Arena[graph.VertexID]
	msgs  []CandMsg
}

// A candidate connection's arena chunks: 512 candidates (52 KiB) and 4 096
// Via elements (32 KiB), so a chunk serves several 64-message frames.
const (
	candArenaChunk = 512
	viaArenaChunk  = 4096
)

func newCandDecoder() *candDecoder {
	return &candDecoder{
		cands: codecutil.Arena[motif.Candidate]{Chunk: candArenaChunk},
		vias:  codecutil.Arena[graph.VertexID]{Chunk: viaArenaChunk},
	}
}

// decodeCandidates reads a counted candidate list, nil when empty.
func decodeCandidates(r *codecutil.Cursor, context string, d *candDecoder) []motif.Candidate {
	out := d.cands.Take(r.Count(context, motif.MinCandidateBytes))
	for i := 0; i < len(out) && r.Err == nil; i++ {
		motif.ReadCandidate(r, &d.vias, &out[i])
	}
	return out
}

// appendCandBatch appends a candidate batch frame to b.
func appendCandBatch(b []byte, seq uint64, msgs []CandMsg) []byte {
	b = append(b, msgCandBatch)
	b = binary.AppendUvarint(b, seq)
	b = binary.AppendUvarint(b, uint64(len(msgs)))
	for _, m := range msgs {
		b = binary.AppendUvarint(b, uint64(m.Pid))
		b = binary.AppendUvarint(b, m.Offset)
		b = binary.AppendVarint(b, m.PubNS)
		b = binary.AppendUvarint(b, uint64(len(m.Cands)))
		for _, c := range m.Cands {
			b = motif.AppendCandidate(b, c)
		}
	}
	return b
}

// decodeCandBatch decodes a candidate batch through d. The message list is
// d's and valid until its next decode; the candidates and their Vias are
// windows of d's arenas and may be kept.
func decodeCandBatch(r *codecutil.Cursor, d *candDecoder) (seq uint64, msgs []CandMsg, err error) {
	seq = r.U("cand seq")
	n := r.Count("cand msg count", 4)
	msgs = d.msgs[:0]
	for i := 0; i < n && r.Err == nil; i++ {
		var m CandMsg
		m.Pid = int(r.U("cand pid"))
		m.Offset = r.U("cand offset")
		m.PubNS = r.I("cand pub ns")
		m.Cands = decodeCandidates(r, "cand count", d)
		msgs = append(msgs, m)
	}
	d.msgs = msgs
	return seq, msgs, r.Err
}

// A read request, typeU2(msgRecsReq or msgTopReq, id, arg), carries the id
// its response echoes and the read's argument: the user, or n.
func decodeReadReq(r *codecutil.Cursor) (id, arg uint64, err error) {
	id = r.U("read id")
	arg = r.U("read arg")
	return id, arg, r.Err
}

func encodeRecsResp(id uint64, cands []motif.Candidate) []byte {
	b := []byte{msgRecsResp}
	b = binary.AppendUvarint(b, id)
	b = binary.AppendUvarint(b, uint64(len(cands)))
	for _, c := range cands {
		b = motif.AppendCandidate(b, c)
	}
	return b
}

func decodeRecsResp(r *codecutil.Cursor) (uint64, []motif.Candidate, error) {
	id := r.U("recs id")
	out := decodeCandidates(r, "recs count", new(candDecoder))
	return id, out, r.Err
}

func encodeTopResp(id uint64, items []partition.ItemCount) []byte {
	b := []byte{msgTopResp}
	b = binary.AppendUvarint(b, id)
	b = binary.AppendUvarint(b, uint64(len(items)))
	for _, it := range items {
		b = binary.AppendUvarint(b, uint64(it.Item))
		b = binary.AppendUvarint(b, uint64(it.Count))
	}
	return b
}

func decodeTopResp(r *codecutil.Cursor) (uint64, []partition.ItemCount, error) {
	id := r.U("top id")
	n := r.Count("top count", 2)
	var out []partition.ItemCount
	for i := 0; i < n && r.Err == nil; i++ {
		var it partition.ItemCount
		it.Item = graph.VertexID(r.U("top item"))
		it.Count = r.U("top item count")
		out = append(out, it)
	}
	return id, out, r.Err
}

// appendU1 appends to b a message of one uvarint field (acks, floors, ids).
func appendU1(b []byte, typ byte, v uint64) []byte {
	return binary.AppendUvarint(append(b, typ), v)
}

// typeU2 encodes a message of two uvarint fields.
func typeU2(typ byte, v1, v2 uint64) []byte {
	b := []byte{typ}
	b = binary.AppendUvarint(b, v1)
	return binary.AppendUvarint(b, v2)
}

func encodeHelloErr(msg string) []byte {
	return appendString([]byte{msgHelloErr}, msg)
}
