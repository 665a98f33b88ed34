package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"motifstream/internal/codecutil"
	"motifstream/internal/metrics"
)

// DialWrapper optionally wraps the socket's write side, giving tests a
// fault-injection seam (codecutil.FailNth tears the Nth write mid-frame,
// exactly like a torn WAL tail).
type DialWrapper func(codecutil.WriteSyncCloser) codecutil.WriteSyncCloser

// connMetrics aggregates per-connection transport counters. Connections
// of the same kind share one set (named transport.<kind>.<label>.*).
type connMetrics struct {
	bytesIn, bytesOut   *metrics.Counter
	framesIn, framesOut *metrics.Counter
}

func newConnMetrics(reg *metrics.Registry, kind, label string) *connMetrics {
	if reg == nil {
		return nil
	}
	prefix := "transport." + kind
	if label != "" {
		prefix += "." + label
	}
	return &connMetrics{
		bytesIn:   reg.Counter(prefix + ".bytes_in"),
		bytesOut:  reg.Counter(prefix + ".bytes_out"),
		framesIn:  reg.Counter(prefix + ".frames_in"),
		framesOut: reg.Counter(prefix + ".frames_out"),
	}
}

// sockWriter adapts a net.Conn to codecutil.WriteSyncCloser so the WAL's
// fault-injection wrappers apply unchanged; Sync is a no-op (the kernel
// owns socket flushing).
type sockWriter struct{ nc net.Conn }

func (s sockWriter) Write(p []byte) (int, error) { return s.nc.Write(p) }
func (s sockWriter) Sync() error                 { return nil }
func (s sockWriter) Close() error                { return s.nc.Close() }

// conn is one framed transport connection. Writes are serialized by wmu
// (frames from concurrent senders interleave whole, never torn); reads
// are single-reader by construction.
type conn struct {
	nc  net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer
	wmu sync.Mutex

	readBuf []byte
	m       *connMetrics

	closeOnce sync.Once
}

func newConn(nc net.Conn, wrap DialWrapper, m *connMetrics) *conn {
	var w codecutil.WriteSyncCloser = sockWriter{nc}
	if wrap != nil {
		w = wrap(w)
	}
	return &conn{
		nc: nc,
		br: bufio.NewReaderSize(nc, 64<<10),
		bw: bufio.NewWriterSize(w, 64<<10),
		m:  m,
	}
}

// writeMsg frames and flushes one message payload.
func (c *conn) writeMsg(payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := codecutil.WriteFrame(c.bw, payload); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	if c.m != nil {
		c.m.bytesOut.Add(uint64(len(payload) + codecutil.FrameHeaderLen))
		c.m.framesOut.Inc()
	}
	return nil
}

// readMsg reads one frame. The returned payload aliases the connection's
// scratch buffer and is valid until the next readMsg call.
func (c *conn) readMsg() ([]byte, error) {
	payload, err := codecutil.ReadFrame(c.br, c.readBuf, maxFrame)
	if err != nil {
		return nil, err
	}
	if cap(payload) > cap(c.readBuf) {
		c.readBuf = payload[:cap(payload)]
	}
	if c.m != nil {
		c.m.bytesIn.Add(uint64(len(payload) + codecutil.FrameHeaderLen))
		c.m.framesIn.Inc()
	}
	return payload, nil
}

func (c *conn) close() {
	c.closeOnce.Do(func() { c.nc.Close() })
}

// errHelloRejected signals the peer refused our hello with a reason.
type errHelloRejected struct{ msg string }

func (e errHelloRejected) Error() string { return "transport: hello rejected: " + e.msg }

// dialConn establishes a transport connection: TCP dial, magic preamble,
// hello frame, and one acknowledgment frame from the server, whose
// payload is returned for the caller to decode.
func dialConn(addr string, hello []byte, timeout time.Duration, wrap DialWrapper, m *connMetrics) (*conn, []byte, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	c := newConn(nc, wrap, m)
	nc.SetDeadline(time.Now().Add(timeout))
	if _, err := nc.Write(connMagic[:]); err != nil {
		c.close()
		return nil, nil, err
	}
	if err := c.writeMsg(hello); err != nil {
		c.close()
		return nil, nil, err
	}
	resp, err := c.readMsg()
	if err != nil {
		c.close()
		return nil, nil, fmt.Errorf("transport: hello response: %w", err)
	}
	if len(resp) > 0 && resp[0] == msgHelloErr {
		wr := wireCursor(resp[1:])
		msg := wr.String("hello error", 1024)
		c.close()
		return nil, nil, errHelloRejected{msg}
	}
	nc.SetDeadline(time.Time{})
	// Copy: the payload aliases the conn's scratch buffer.
	out := append([]byte(nil), resp...)
	return c, out, nil
}

// acceptConn validates the magic preamble and reads the hello frame on a
// freshly accepted server connection.
func acceptConn(nc net.Conn, timeout time.Duration) (*conn, []byte, error) {
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	c := newConn(nc, nil, nil)
	nc.SetDeadline(time.Now().Add(timeout))
	var magic [8]byte
	if _, err := io.ReadFull(c.br, magic[:]); err != nil {
		return nil, nil, fmt.Errorf("transport: connection preamble: %w", err)
	}
	if magic != connMagic {
		return nil, nil, errors.New("transport: bad connection magic")
	}
	hello, err := c.readMsg()
	if err != nil {
		return nil, nil, fmt.Errorf("transport: hello frame: %w", err)
	}
	nc.SetDeadline(time.Time{})
	out := append([]byte(nil), hello...)
	return c, out, nil
}

// redial is the one reconnect policy of a worker's dialed streams. It
// dials addr and sends hello() — built per attempt, so it can carry state that
// moved since the last one — until stopped() or until serve, which gets each
// accepted connection with the body of the hub's ackType reply, reports the
// stream finished. A failed dial is retried with backoff; a connection serve
// returns from unfinished is redialed at once; both count as reconnects. Two
// outcomes are terminal and returned as errors: the hub rejected the hello (a
// configuration error, not a transient fault), or it stayed unreachable for
// the whole retryFor outage budget — gone, not blinking; the budget resets on
// every accepted hello. redial closes the connection after serve returns, and
// re-checks stopped() only between connections: a caller whose stop can race a
// dial must check again in serve, under the lock that publishes the connection.
func redial(addr string, opts ClientOptions, m *connMetrics, reconnects *metrics.Counter, stopped func() bool,
	hello func() []byte, ackType byte, serve func(c *conn, ack []byte) (finished bool, err error)) error {
	count := func() {
		if reconnects != nil {
			reconnects.Inc()
		}
	}
	attempt := 0
	giveUp := time.Now().Add(retryFor)
	for !stopped() {
		c, ack, err := dialConn(addr, hello(), dialTimeout, opts.WrapWriter, m)
		if err != nil {
			var rej errHelloRejected
			if errors.As(err, &rej) {
				return err
			}
			if stopped() {
				return nil
			}
			if time.Now().After(giveUp) {
				return fmt.Errorf("transport: %s unreachable for %v: %w", addr, retryFor, err)
			}
			count()
			time.Sleep(backoff(attempt))
			attempt++
			continue
		}
		attempt = 0
		giveUp = time.Now().Add(retryFor)
		if len(ack) == 0 || ack[0] != ackType {
			c.close()
			continue
		}
		finished, err := serve(c, ack[1:])
		c.close()
		if finished || err != nil {
			return err
		}
		if !stopped() {
			count()
		}
	}
	return nil
}

// backoff returns the reconnect delay for the given consecutive-failure
// attempt: 50ms doubling to a 1s ceiling.
func backoff(attempt int) time.Duration {
	d := 50 * time.Millisecond << uint(attempt)
	if d > time.Second || d <= 0 {
		d = time.Second
	}
	return d
}
