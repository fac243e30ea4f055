package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"prudence"
	"prudence/internal/server"
)

// mix selects a session workload's traffic.
type mix int

const (
	// readMix: 16-op batches, 95 % Get and 5 % Touch over resident
	// sessions with a hot-key share, plus 1 % route lookups.
	readMix mix = iota
	// churnMix: 32-op batches of Connect and Disconnect over a key
	// space about half resident, DoS-style open/close bursts of fresh
	// keys, and a periodic read-side stall from client 0.
	churnMix
	// httpMix: single ops, 90 % Get and 10 % Connect (an HTTP PUT) over
	// resident sessions; http-session's requests, and the same traffic
	// submitted directly when its traced run measures the HTTP layer.
	httpMix
)

const (
	sessionKeys    = 100_000 // resident sessions (read) or key space (churn)
	httpKeys       = 20_000
	routeKeys      = 1024
	sessionObj     = 128 // session object bytes, server and replay alike
	routeObj       = 64  // route object bytes
	sessionBuckets = 1 << 14
	payloadLen     = 64 // session payload bytes; fits a framed 128 B object
	routeLen       = 32 // route payload bytes; fits a framed 64 B object
	populateBatch  = 128
	warmBatches    = 2000 // per client, part of setup

	readBatchOps     = 16
	readRoutePerMile = 10  // route lookups
	readTouchPerMile = 50  // touches; the rest are gets
	hotPerMile       = 200 // share of gets and touches aimed at the hot keys
	hotKeys          = 32  // per client

	churnBatchOps = 32
	dosPerMile    = 50 // batches that are an open/close burst of fresh keys
	stallEvery    = 2000
	stallHold     = 20 * time.Millisecond

	httpPutPerMile = 100

	// replayTimedEvery: the direct replay times one op in this many.
	replayTimedEvery = 4
)

// session drives an in-process server.Server through Submit with one
// closed-loop client per shard; each client keeps one batch in flight
// to the shard whose keys it owns.
type session struct {
	mix     mix
	seed    uint64
	srv     *server.Server
	clients []*client
}

func newSession(m mix, seed uint64) workload { return &session{mix: m, seed: seed} }

// serverConfig is the server over stackConfig's stack.
func serverConfig() server.Config {
	return server.Config{
		CPUs:           stackConfig.CPUs,
		MemoryPages:    stackConfig.MemoryPages,
		Allocator:      stackConfig.Allocator,
		Reclamation:    stackConfig.Reclamation,
		Arena:          stackConfig.Arena,
		SessionBytes:   sessionObj,
		RouteBytes:     routeObj,
		SessionBuckets: sessionBuckets,
	}
}

func (s *session) setup() error {
	srv, err := server.New(serverConfig())
	if err != nil {
		return err
	}
	s.srv = srv
	keys := sessionKeys
	if s.mix == httpMix {
		keys = httpKeys
	}
	s.clients = newClients(s.mix, s.seed, keys, srv.ShardFor)
	if errs := populate(srv, s.clients); len(errs) > 0 {
		return fmt.Errorf("populate: %s", errs[0])
	}
	if p, _ := s.drive(0, warmBatches, false); len(p.errs) > 0 {
		return fmt.Errorf("warm-up: %s", p.errs[0])
	}
	return nil
}

// drive runs every client's closed loop for d (or, with d == 0, for
// batches batches each). When traced it also returns each client's
// Submit timings.
func (s *session) drive(d time.Duration, batches int, traced bool) (*phase, []samples) {
	var submits []samples
	if traced {
		submits = make([]samples, len(s.clients))
	}
	p := eachClient(len(s.clients), d, "a batch never got its reply", func(i int, p *phase) {
		var submit *samples
		if traced {
			submit = &submits[i]
		}
		s.clients[i].loop(s.srv, d, batches, p, submit)
	})
	return p, submits
}

func (s *session) run(d time.Duration) *phase {
	p, _ := s.drive(d, 0, false)
	return p
}

// trace thirds d: an untraced phase, a traced one, and the direct
// replay on a facade Map and Tree.
func (s *session) trace(d time.Duration, l *ledger) *phase {
	base := s.run(d / 3)
	pr := startProbe(s.srv.GatherMetrics)
	tr := s.traceServer(d/3, l)
	pr.stop(l, tr.ops, nil)
	l.overhead(base, tr)

	rp := replay(s.clients, s.srv.ShardFor, d/3, l)
	if tr.ops > 0 && rp.ops > 0 {
		serverNs := float64(tr.lat.sum()) / float64(tr.ops)
		l.set("server.dispatch_ns_per_op", serverNs-rp.nsPerOp, tr.ops)
	}
	base.absorb(tr)
	base.absorb(&rp.phase)
	return base
}

// traceServer drives the closed loop for d timing every Submit, and
// credits the server's own counters to the ledger.
func (s *session) traceServer(d time.Duration, l *ledger) *phase {
	expedites := s.srv.Expedites()
	p, submits := s.drive(d, 0, true)
	submit := merge(submits...).sorted()
	l.set("server.submit_wait_p99_us", float64(submit.percentile(0.99))/1e3, int64(len(submit)))
	l.set("server.expedites_per_1k_ops", perK(float64(s.srv.Expedites()-expedites), float64(p.ops)), p.ops)
	l.set("server.peak_latent_objects", float64(s.srv.PeakLatentObjects()), 1)
	return p
}

// close checks the server's sessions against the clients' shadows,
// then shuts the server down: the live count must equal connects minus
// disconnects, and a Get of every owned key must return its last
// written payload, or not-found for an absent key.
func (s *session) close() []string {
	var errs []string
	live, net := 0, 0
	for _, c := range s.clients {
		live += c.live
		net += int(c.connects - c.disconnects)
	}
	if got := s.srv.LiveSessions(); got != live || got != net {
		errs = append(errs, fmt.Sprintf("live sessions %d, shadow %d, connects-disconnects %d",
			got, live, net))
	}
	p := eachClient(len(s.clients), 0, "a sweep batch never got its reply", func(i int, p *phase) {
		c := s.clients[i]
		c.batch.Ops = c.batch.Ops[:0] // the closed loop's last batch has already run
		for i, k := range c.keys {
			st := server.StatusOK
			if c.ver[i] == 0 {
				st = server.StatusNotFound
			}
			c.queue(s.srv, p, server.OpGet, k, 0, payloadLen, want{ver: c.ver[i], status: st})
		}
		c.send(s.srv, p)
	})
	s.srv.Close()
	return append(errs, p.errs...)
}

// want is what a client expects back for one op of its batch.
type want struct {
	ver    uint32 // payload version a Get must return
	status server.Status
	live   int8 // +1 when the op connects a session, -1 when it disconnects one
}

// client owns one shard's keys and keeps a shadow of the last payload
// version written to each.
type client struct {
	id      int
	mix     mix
	rng     rng
	keys    []uint64 // session keys routed to this client's shard
	ver     []uint32 // shadow: payload version per key, 0 = absent
	routes  []uint64 // route keys routed to this shard (never rewritten)
	live    int      // owned keys present
	nextVer uint32
	fresh   uint64 // next candidate for a never-used key

	batch   *server.Batch
	wants   []want
	slots   []byte // payload storage, payloadLen per op
	scratch []byte
	batches int

	connects, disconnects int64
}

// newClients spreads total seeded session keys over one client per
// shard. In the churn mix each key starts resident with probability ½.
func newClients(m mix, seed uint64, total int, shardFor func(uint64) int) []*client {
	clients := make([]*client, vcpus)
	for i := range clients {
		clients[i] = &client{
			id:      i,
			mix:     m,
			rng:     rng{s: seed*0x9e3779b97f4a7c15 + uint64(i+1)},
			nextVer: 1,
			fresh:   1 << 62, // seeded keys stay below bit 62
		}
		clients[i].alloc()
	}
	keyGen := rng{s: seed}
	for n := 0; n < total; n++ {
		k := keyGen.next() >> 2
		c := clients[shardFor(k)]
		c.keys = append(c.keys, k)
		v := uint32(0)
		if m != churnMix || keyGen.next()&1 == 0 {
			v = c.nextVer
			c.nextVer++
			c.live++
		}
		c.ver = append(c.ver, v)
	}
	for k := uint64(0); k < routeKeys; k++ {
		c := clients[shardFor(k)]
		c.routes = append(c.routes, k)
	}
	return clients
}

// alloc gives the client its own batch and payload buffers.
func (c *client) alloc() {
	c.batch = server.NewBatch(populateBatch)
	c.wants = make([]want, populateBatch)
	c.slots = make([]byte, populateBatch*payloadLen)
	c.scratch = make([]byte, payloadLen)
}

// populate connects every resident key and adds every route, one
// goroutine per client, and returns the checks that failed.
func populate(srv *server.Server, clients []*client) []string {
	ok := server.StatusOK
	p := eachClient(len(clients), 0, "a populate batch never got its reply", func(i int, p *phase) {
		c := clients[i]
		for i, k := range c.keys {
			if c.ver[i] != 0 {
				c.queue(srv, p, server.OpConnect, k, c.ver[i], payloadLen, want{status: ok, live: 1})
			}
		}
		for _, k := range c.routes {
			c.queue(srv, p, server.OpRouteAdd, k, 1, routeLen, want{status: ok})
		}
		c.send(srv, p)
	})
	return p.errs
}

// queue adds one op to a bulk batch, sending the batch once it is full.
func (c *client) queue(srv *server.Server, p *phase, kind server.OpKind, key uint64, ver uint32, n int, w want) {
	c.add(kind, key, ver, n, w)
	if len(c.batch.Ops) == populateBatch {
		c.send(srv, p)
	}
}

// send submits the pending batch, waits for it and checks it.
func (c *client) send(srv *server.Server, p *phase) {
	if len(c.batch.Ops) == 0 {
		return
	}
	if err := srv.Submit(c.id, c.batch); err != nil {
		p.fail("client %d: Submit: %v", c.id, err)
	} else {
		<-c.batch.Reply
		c.verify(p)
	}
	c.batch.Ops = c.batch.Ops[:0]
}

// payload writes the seeded payload of (key, version) into dst.
func payload(dst []byte, key uint64, ver uint32) []byte {
	x := key*0x9e3779b97f4a7c15 ^ uint64(ver)*0xbf58476d1ce4e5b9
	for i := 0; i+8 <= len(dst); i += 8 {
		x ^= x >> 29
		x *= 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(dst[i:], x)
	}
	return dst
}

// add appends one op. Writes carry payload(key, ver) of n bytes; reads
// get an n-byte buffer.
func (c *client) add(kind server.OpKind, key uint64, ver uint32, n int, w want) {
	i := len(c.batch.Ops)
	slot := c.slots[i*payloadLen : i*payloadLen+n]
	op := server.Op{Kind: kind, Key: key}
	switch kind {
	case server.OpConnect, server.OpTouch, server.OpRouteAdd:
		op.Val = payload(slot, key, ver)
	case server.OpGet, server.OpRouteLookup:
		op.Buf = slot
	case server.OpStall:
		op.Hold = stallHold
	}
	c.batch.Ops = append(c.batch.Ops, op)
	c.wants[i] = w
}

// pick returns an owned key index, hot with probability hotPerMile.
func (c *client) pick() int {
	if c.rng.below(hotPerMile) {
		return c.rng.intn(hotKeys)
	}
	return c.rng.intn(len(c.keys))
}

// freshKey returns a never-used key routed to this client's shard.
func (c *client) freshKey(shardFor func(uint64) int) uint64 {
	for {
		k := c.fresh
		c.fresh++
		if shardFor(k) == c.id {
			return k
		}
	}
}

// build fills the next batch of the client's mix and updates the
// shadow to what the server will hold once the batch has run.
func (c *client) build(shardFor func(uint64) int) {
	c.batch.Ops = c.batch.Ops[:0]
	c.batches++
	ok := server.StatusOK
	switch {
	case c.mix == readMix:
		for len(c.batch.Ops) < readBatchOps {
			switch r := c.rng.intn(1000); {
			case r < readRoutePerMile:
				k := c.routes[c.rng.intn(len(c.routes))]
				c.add(server.OpRouteLookup, k, 1, routeLen, want{ver: 1, status: ok})
			case r < readRoutePerMile+readTouchPerMile:
				i := c.pick()
				c.ver[i] = c.nextVer
				c.nextVer++
				c.add(server.OpTouch, c.keys[i], c.ver[i], payloadLen, want{status: ok})
			default:
				i := c.pick()
				c.add(server.OpGet, c.keys[i], 0, payloadLen, want{ver: c.ver[i], status: ok})
			}
		}
	case c.mix == httpMix:
		i := c.rng.intn(len(c.keys))
		if c.rng.below(httpPutPerMile) {
			c.ver[i] = c.nextVer
			c.nextVer++
			c.add(server.OpConnect, c.keys[i], c.ver[i], payloadLen, want{status: ok})
		} else {
			c.add(server.OpGet, c.keys[i], 0, payloadLen, want{ver: c.ver[i], status: ok})
		}
	case c.id == 0 && c.batches%stallEvery == 0:
		c.add(server.OpStall, c.keys[0], 0, 0, want{status: ok})
	case c.rng.below(dosPerMile):
		for len(c.batch.Ops) < churnBatchOps {
			k := c.freshKey(shardFor)
			c.add(server.OpConnect, k, 1, payloadLen, want{status: ok, live: 1})
			c.add(server.OpDisconnect, k, 0, 0, want{status: ok, live: -1})
		}
	default:
		for len(c.batch.Ops) < churnBatchOps {
			i := c.rng.intn(len(c.keys))
			if c.ver[i] == 0 {
				c.ver[i] = c.nextVer
				c.nextVer++
				c.live++
				c.add(server.OpConnect, c.keys[i], c.ver[i], payloadLen, want{status: ok, live: 1})
			} else {
				c.ver[i] = 0
				c.live--
				c.add(server.OpDisconnect, c.keys[i], 0, 0, want{status: ok, live: -1})
			}
		}
	}
}

// verify checks every op of a returned batch against its expectation.
func (c *client) verify(p *phase) {
	for i := range c.batch.Ops {
		op, w := &c.batch.Ops[i], c.wants[i]
		p.attempted++
		if op.Status != w.status {
			p.fail("client %d: %s key %#x: status %s, want %s", c.id, op.Kind, op.Key, op.Status, w.status)
			continue
		}
		switch {
		case w.live > 0:
			c.connects++
		case w.live < 0:
			c.disconnects++
		}
		switch op.Kind {
		case server.OpGet, server.OpRouteLookup:
			if op.Status == server.StatusOK && !bytes.Equal(op.Buf[:op.N], payload(c.scratch[:len(op.Buf)], op.Key, w.ver)) {
				p.fail("client %d: %s key %#x returned a payload other than the last one written", c.id, op.Kind, op.Key)
				continue
			}
		}
		p.ops++
	}
}

// loop is the client's closed loop: build a batch, Submit it to the
// owned shard, wait for the reply, check it, sample memory in use.
func (c *client) loop(srv *server.Server, d time.Duration, batches int, p *phase, submit *samples) {
	p.lat = make(samples, 0, 1<<18)
	sys := srv.System()
	deadline := time.Now().Add(d)
	for n := 0; d > 0 || n < batches; n++ {
		c.build(srv.ShardFor)
		t0 := time.Now()
		if err := srv.Submit(c.id, c.batch); err != nil {
			p.fail("client %d: Submit: %v", c.id, err)
			return
		}
		if submit != nil {
			submit.add(time.Since(t0))
		}
		<-c.batch.Reply
		t1 := time.Now()
		p.lat.add(t1.Sub(t0))
		c.verify(p)
		p.peakUsed = max(p.peakUsed, sys.UsedBytes())
		if d > 0 && t1.After(deadline) {
			return
		}
	}
}

// clone copies the client's shadow so a replay can advance it without
// disturbing the server-side checks.
func (c *client) clone() *client {
	r := *c
	r.ver = append([]uint32(nil), c.ver...)
	r.alloc()
	return &r
}

// replayResult is a direct replay's tally and its mean time per op,
// quiescent state included; building and checking batches is not
// counted.
type replayResult struct {
	phase
	nsPerOp float64
}

// replay runs each client's mix directly on a facade Map and Tree on
// its own vCPU, with no server in between, for d. It starts from a copy
// of the clients' shadows and times one op in replayTimedEvery.
func replay(clients []*client, shardFor func(uint64) int, d time.Duration, l *ledger) *replayResult {
	sys, err := prudence.New(stackConfig)
	if err != nil {
		return &replayResult{phase: phase{errs: []string{"replay: " + err.Error()}, failed: 1}}
	}
	defer sys.Close()
	sc := sys.NewCache("replay-sessions", sessionObj)
	rc := sys.NewCache("replay-routes", routeObj)
	m := sys.NewMap(sc, sessionBuckets)
	t := sys.NewTree(rc)
	defer rc.Drain()
	defer sc.Drain()

	type kindTimes struct{ get, put, del, tget, qs samples }
	times := make([]kindTimes, len(clients))
	parts := make([]phase, len(clients))
	elapsed := make([]time.Duration, len(clients)) // time spent executing ops
	sys.RunOnAllCPUs(func(cpu int) {
		c := clients[cpu].clone()
		p, kt := &parts[cpu], &times[cpu]
		buf := make([]byte, payloadLen)
		for i, k := range c.keys {
			if c.ver[i] != 0 {
				if err := m.Put(cpu, k, payload(buf, k, c.ver[i])); err != nil {
					p.fail("replay populate: %v", err)
					return
				}
			}
		}
		for _, k := range c.routes {
			if err := t.Put(cpu, k, payload(buf[:routeLen], k, 1)); err != nil {
				p.fail("replay populate: %v", err)
				return
			}
		}
		sys.QuiescentState(cpu)
		deadline := time.Now().Add(d)
		n := 0
		for {
			c.build(shardFor)
			start := time.Now()
			for i := range c.batch.Ops {
				op := &c.batch.Ops[i]
				if op.Kind == server.OpStall {
					op.Status = server.StatusOK
					continue
				}
				n++
				timed := n%replayTimedEvery == 0
				var t0 time.Time
				if timed {
					t0 = time.Now()
				}
				var into *samples
				switch op.Kind {
				case server.OpConnect, server.OpTouch:
					op.Status = errStatus(m.Put(cpu, op.Key, op.Val))
					into = &kt.put
				case server.OpGet:
					op.N, op.Status = found(m.Get(cpu, op.Key, op.Buf))
					into = &kt.get
				case server.OpDisconnect:
					ok, err := m.Delete(cpu, op.Key)
					op.Status = errStatus(err)
					if !ok && err == nil {
						op.Status = server.StatusNotFound
					}
					into = &kt.del
				case server.OpRouteLookup:
					op.N, op.Status = found(t.Get(cpu, op.Key, op.Buf))
					into = &kt.tget
				}
				if timed {
					t1 := time.Now()
					into.add(t1.Sub(t0))
					sys.QuiescentState(cpu)
					kt.qs.add(time.Since(t1))
				} else {
					sys.QuiescentState(cpu)
				}
			}
			end := time.Now()
			elapsed[cpu] += end.Sub(start)
			c.verify(p)
			if end.After(deadline) {
				break
			}
		}
	})

	res := &replayResult{}
	var get, put, del, tget, qs samples
	var wall time.Duration
	for i := range parts {
		res.absorb(&parts[i])
		wall += elapsed[i]
		kt := &times[i]
		get, put, del = merge(get, kt.get), merge(put, kt.put), merge(del, kt.del)
		tget, qs = merge(tget, kt.tget), merge(qs, kt.qs)
	}
	if res.ops > 0 {
		res.nsPerOp = float64(wall.Nanoseconds()) / float64(res.ops)
	}
	for _, s := range []struct {
		name string
		s    samples
	}{{"rcuhash.get_p50_ns", get}, {"rcuhash.put_p50_ns", put}, {"rcuhash.delete_p50_ns", del},
		{"rcutree.get_p50_ns", tget}, {"rcu.quiescent_state_p50_ns", qs}} {
		if len(s.s) > 0 {
			l.setPercentiles(s.name, "", s.s)
		}
	}
	return res
}

func errStatus(err error) server.Status {
	switch {
	case err == nil:
		return server.StatusOK
	case errors.Is(err, prudence.ErrOutOfMemory):
		return server.StatusOOM
	}
	return server.StatusNotFound
}

func found(n int, ok bool) (int, server.Status) {
	if !ok {
		return 0, server.StatusNotFound
	}
	return n, server.StatusOK
}
