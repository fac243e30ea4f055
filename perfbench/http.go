package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// warmRequests per connection are part of http-session's setup.
const warmRequests = 2000

// httpSession drives the server's HTTP front end over loopback: one
// keep-alive connection per client, 90 % GET and 10 % PUT of
// /v1/session/{id}, each client on the keys its shard owns.
type httpSession struct {
	*session
	served      chan error
	conns       []*httpConn
	unavailable atomic.Int64 // 503 replies
}

func newHTTPSession(seed uint64) workload {
	return &httpSession{session: &session{mix: httpMix, seed: seed}}
}

func (h *httpSession) setup() error {
	if err := h.session.setup(); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h.served = make(chan error, 1)
	go func() { h.served <- h.srv.Serve(ln) }()
	for range h.clients {
		conn, err := dial(ln.Addr().String())
		if err != nil {
			return err
		}
		h.conns = append(h.conns, conn)
	}
	if p := h.drive(0, warmRequests); len(p.errs) > 0 {
		return fmt.Errorf("warm-up: %s", p.errs[0])
	}
	return nil
}

// drive runs every client's HTTP closed loop for d (or, with d == 0,
// for reqs requests each).
func (h *httpSession) drive(d time.Duration, reqs int) *phase {
	return eachClient(len(h.clients), d, "an HTTP request never got its reply", func(i int, p *phase) {
		h.loop(h.clients[i], h.conns[i], d, reqs, p)
	})
}

// loop is one connection's closed loop: build the client's next op,
// write it as an HTTP/1.1 request, read the whole reply, check it. The
// client speaks HTTP on the raw connection so that the measured time is
// the server's, not a client transport's goroutines.
func (h *httpSession) loop(c *client, conn *httpConn, d time.Duration, reqs int, p *phase) {
	p.lat = make(samples, 0, 1<<18)
	sys := h.srv.System()
	deadline := time.Now().Add(d)
	for n := 0; d > 0 || n < reqs; n++ {
		c.build(h.srv.ShardFor)
		op, w := &c.batch.Ops[0], c.wants[0]
		method, wantCode := http.MethodGet, http.StatusOK
		if op.Val != nil {
			method, wantCode = http.MethodPut, http.StatusNoContent
		}
		p.attempted++
		t0 := time.Now()
		code, body, err := conn.do(method, op.Key, op.Val)
		t1 := time.Now()
		if err != nil {
			p.fail("client %d: %s key %d: %v", c.id, method, op.Key, err)
			return
		}
		p.lat.add(t1.Sub(t0))
		switch {
		case code == http.StatusServiceUnavailable:
			h.unavailable.Add(1)
			p.fail("client %d: %s key %d: 503", c.id, method, op.Key)
		case code != wantCode:
			p.fail("client %d: %s key %d: status %d, want %d", c.id, method, op.Key, code, wantCode)
		case method == http.MethodGet && !bytes.Equal(body, payload(c.scratch, op.Key, w.ver)):
			p.fail("client %d: GET key %d returned a payload other than the last one written", c.id, op.Key)
		default:
			p.ops++
		}
		p.peakUsed = max(p.peakUsed, sys.UsedBytes())
		if d > 0 && t1.After(deadline) {
			return
		}
	}
}

// httpConn is one keep-alive HTTP/1.1 connection to the server.
type httpConn struct {
	conn net.Conn
	r    *bufio.Reader
	req  []byte
	body []byte
}

func dial(addr string) (*httpConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &httpConn{conn: conn, r: bufio.NewReader(conn), body: make([]byte, 0, 512)}, nil
}

// do sends one request for /v1/session/{key} and returns the reply's
// status code and body.
func (hc *httpConn) do(method string, key uint64, val []byte) (int, []byte, error) {
	b := append(hc.req[:0], method...)
	b = append(b, " /v1/session/"...)
	b = strconv.AppendUint(b, key, 10)
	b = append(b, " HTTP/1.1\r\nHost: bench\r\n"...)
	if method == http.MethodPut {
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, int64(len(val)), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	b = append(b, val...)
	hc.req = b
	if _, err := hc.conn.Write(b); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(hc.r, nil)
	if err != nil {
		return 0, nil, err
	}
	body := bytes.NewBuffer(hc.body[:0])
	_, err = body.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body.Bytes(), err
}

func (h *httpSession) run(d time.Duration) *phase { return h.drive(d, 0) }

// trace quarters d: an untraced HTTP phase, a traced one, the same
// traffic as one-op batches straight into Submit, and the direct
// replay on a facade Map.
func (h *httpSession) trace(d time.Duration, l *ledger) *phase {
	base := h.run(d / 4)
	pr := startProbe(h.srv.GatherMetrics)
	tr := h.drive(d/4, 0)
	pr.stop(l, tr.ops, nil)
	l.overhead(base, tr)
	l.set("http.status_503_share", float64(h.unavailable.Load())/float64(max(base.attempted+tr.attempted, 1)),
		base.attempted+tr.attempted)

	direct := h.traceServer(d/4, l)
	httpLat, directLat := tr.lat.sorted(), direct.lat.sorted()
	l.set("http.self_p50_us", float64(httpLat.percentile(0.5)-directLat.percentile(0.5))/1e3, int64(len(httpLat)))

	rp := replay(h.clients, h.srv.ShardFor, d/4, l)
	if direct.ops > 0 && rp.ops > 0 {
		l.set("server.dispatch_ns_per_op", float64(direct.lat.sum())/float64(direct.ops)-rp.nsPerOp, direct.ops)
	}
	for _, p := range []*phase{tr, direct, &rp.phase} {
		base.absorb(p)
	}
	return base
}

func (h *httpSession) close() []string {
	errs := h.session.close()
	if err := <-h.served; err != nil {
		errs = append(errs, "serve: "+err.Error())
	}
	for _, c := range h.conns {
		c.conn.Close()
	}
	return errs
}
