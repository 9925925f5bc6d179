package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/store"
	"repro/internal/transport"
)

// The traced run measures every layer from outside the program: it
// decorates the replicas' board logs and the ReplicatedLog, counts frames
// and bytes per hop through the dial hooks the cluster already exposes,
// and wraps the router handler and the node dispatch. Spans are kept in
// memory and written out when the run ends. A nil *tracer is the untraced
// run: every hook below is then the identity.

// Span names, one per layer boundary.
const (
	spClient     = "bench.client"          // frame sent → verdicts (request root)
	spRouter     = "cluster.router"        // Router.Handler()
	spRouterNode = "transport.router_node" // router→node round trip at the dial hook
	spNode       = "node.dispatch"         // node frame dispatch (the vdpserver node-mode switch)
	spDecode     = "vdp.decode"            // DecodeSubmissionBatch
	spAdmit      = "vdp.admit"             // Node.SubmitBatch
	spRepl       = "cluster.replicated"    // ReplicatedLog call (mirror-before-ack)
	spFile       = "store.file"            // FileLog call, primary or standby
	spMirror     = "transport.mirror"      // primary→standby round trip at the dial hook
	spStandby    = "standby.dispatch"      // standby frame dispatch
	spFollower   = "transport.follower"    // follower→node round trip at the dial hook
	spFinalize   = "op.finalize_merge"     // Router.FinalizeMerge
	spCatchup    = "op.tail_catchup"       // follower Poll over the filled epoch
	spCertify    = "op.tail_certify"       // follower Poll + VerifyNext after the seal
	spAudit      = "op.audit"              // Router.AuditCluster
)

// Transport hops counted at the dial hooks.
const (
	hopRouterNode = "router_node"
	hopMirror     = "mirror"
	hopFollower   = "follower"
)

var hopSpan = map[string]string{hopRouterNode: spRouterNode, hopMirror: spMirror, hopFollower: spFollower}

// span is one timed call at a layer boundary. The request ID is (Epoch,
// First): the epoch and the first client ID of the frame that caused it.
type span struct {
	Name   string `json:"name"`
	Kind   string `json:"kind,omitempty"` // frame kind or log operation
	Role   string `json:"role,omitempty"` // primary / standby for store spans
	Shard  int    `json:"shard"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Epoch  int    `json:"epoch"`
	First  int    `json:"first_client"`
}

func (s *span) dur() int64 { return s.End - s.Start }

type openKey struct {
	shard int
	name  string
}

// tracer holds a traced run's spans and counters. The parent of a span
// the program's own goroutines open (a node or standby dispatch, a log
// call, a mirror round trip) is the open span of the enclosing layer on
// the same shard. One slot per (shard, layer) is enough because the
// program serialises those layers per shard: a cluster.Backend runs one
// round trip at a time, and a node admits one frame at a time.
// checkSerial turns that assumption into a correctness gate, so a change
// that lets them overlap fails the traced run instead of misattributing
// time.
type tracer struct {
	mu      sync.Mutex
	origin  time.Time
	spans   []span
	open    map[openKey]int // open span per (shard, layer)
	reqRoot map[int]int     // first client ID → client span
	reqRtr  map[int]int     // first client ID → router span
	op      int             // open bench-level operation span, -1 if none
	counts  map[string]int64
	addrs   map[string]int // node and standby address → shard
}

func newTracer() *tracer {
	return &tracer{
		origin:  time.Now(),
		open:    map[openKey]int{},
		reqRoot: map[int]int{},
		reqRtr:  map[int]int{},
		op:      -1,
		counts:  map[string]int64{},
		addrs:   map[string]int{},
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// at converts a wall-clock instant to trace time.
func (t *tracer) at(w time.Time) int64 { return int64(w.Sub(t.origin)) }

// beginLocked opens a span; callers hold t.mu.
func (t *tracer) beginLocked(s span) int {
	if s.Start == 0 {
		s.Start = t.now()
	}
	t.spans = append(t.spans, s)
	i := len(t.spans) - 1
	t.open[openKey{s.Shard, s.Name}] = i
	return i
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = t.now()
	k := openKey{t.spans[i].Shard, t.spans[i].Name}
	if t.open[k] == i {
		delete(t.open, k)
	}
	if t.op == i {
		t.op = -1
	}
}

// openIn returns the first open span among names on shard, or -1. See
// the tracer type for why one open span per (shard, layer) is enough.
func (t *tracer) openIn(shard int, names ...string) int {
	for _, n := range names {
		if i, ok := t.open[openKey{shard, n}]; ok {
			return i
		}
	}
	return -1
}

func (t *tracer) count(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// counters snapshots the counters, so a phase can be measured as a
// difference.
func (t *tracer) counters() map[string]int64 {
	out := map[string]int64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, v := range t.counts {
		out[k] = v
	}
	return out
}

// request opens a client frame's root span.
func (t *tracer) request(first int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	root := t.beginLocked(span{Name: spClient, Shard: -1, Parent: -1, First: first})
	t.reqRoot[first] = root
	return root
}

// operation opens a bench-level operation span (finalize, tail, audit).
func (t *tracer) operation(name string, first int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.op = t.beginLocked(span{Name: name, Shard: -1, Parent: -1, First: first})
	return t.op
}

// wrapRouter times Router.Handler() calls.
func (t *tracer) wrapRouter(h transport.Handler) transport.Handler {
	if t == nil {
		return h
	}
	return func(f *transport.Frame) ([]*transport.Frame, error) {
		t.mu.Lock()
		i := t.beginLocked(span{Name: spRouter, Kind: f.Kind, Shard: -1, Parent: t.reqParent(f.Sender), First: f.Sender})
		t.reqRtr[f.Sender] = i
		t.mu.Unlock()
		defer t.end(i)
		return h(f)
	}
}

func (t *tracer) reqParent(first int) int {
	if i, ok := t.reqRoot[first]; ok {
		return i
	}
	return -1
}

// child opens a span under an explicit parent on the calling goroutine.
func (t *tracer) child(name, kind string, shard, parent, first int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.beginLocked(span{Name: name, Kind: kind, Shard: shard, Parent: parent, First: first})
}

// dispatch opens a node or standby dispatch span, parented to the round
// trip that delivered the frame.
func (t *tracer) dispatch(name string, shard int, f *transport.Frame) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := t.openIn(shard, spRouterNode, spFollower)
	if name == spStandby && f.Kind == cluster.KindReplicate {
		parent = t.openIn(shard, spMirror)
	}
	return t.beginLocked(span{Name: name, Kind: f.Kind, Shard: shard, Parent: parent, First: f.Sender})
}

// tracedLog decorates a replica's BoardLog — a FileLog (layer spFile) or
// the primary's ReplicatedLog (layer spRepl). It forwards every optional
// interface the program type-asserts, with the same fallbacks the program
// applies when a log lacks one: AppendNoSync/Sync (group commit in the
// session, the ReplicatedLog and the standby) and Acked/Len (a node's
// reported log length). Without them the traced program would silently
// lose group commit.
type tracedLog struct {
	inner store.BoardLog
	t     *tracer
	layer string
	role  string
	shard int
}

func (t *tracer) wrapLog(inner store.BoardLog, layer, role string, shard int) store.BoardLog {
	if t == nil {
		return inner
	}
	return &tracedLog{inner: inner, t: t, layer: layer, role: role, shard: shard}
}

func (l *tracedLog) begin(op string) int {
	l.t.mu.Lock()
	defer l.t.mu.Unlock()
	var parent int
	switch {
	case l.layer == spRepl:
		parent = l.t.openIn(l.shard, spAdmit, spNode)
	case l.role == "standby":
		parent = l.t.openIn(l.shard, spStandby)
	default:
		parent = l.t.openIn(l.shard, spRepl, spNode)
	}
	return l.t.beginLocked(span{Name: l.layer, Kind: op, Role: l.role, Shard: l.shard, Parent: parent})
}

func (l *tracedLog) done(i int, op string, rec *store.Record) {
	l.t.end(i)
	if l.layer != spFile {
		return
	}
	switch op {
	case "sync":
		l.t.count("store.syncs", 1)
	case "append":
		l.t.count("store.syncs", 1)
		fallthrough
	default:
		l.t.count("store.appends", 1)
		l.t.count("store.write_bytes", int64(len(store.EncodeRecord(rec))))
	}
}

func (l *tracedLog) Append(rec *store.Record) error {
	i := l.begin("append")
	err := l.inner.Append(rec)
	l.done(i, "append", rec)
	return err
}

func (l *tracedLog) AppendNoSync(rec *store.Record) error {
	gc, ok := l.inner.(interface{ AppendNoSync(*store.Record) error })
	if !ok {
		return l.Append(rec)
	}
	i := l.begin("append_nosync")
	err := gc.AppendNoSync(rec)
	l.done(i, "append_nosync", rec)
	return err
}

func (l *tracedLog) Sync() error {
	gc, ok := l.inner.(interface{ Sync() error })
	if !ok {
		return nil
	}
	i := l.begin("sync")
	err := gc.Sync()
	l.done(i, "sync", nil)
	return err
}

func (l *tracedLog) Acked() int {
	if c, ok := l.inner.(interface{ Acked() int }); ok {
		return c.Acked()
	}
	return l.Len()
}

func (l *tracedLog) Len() int {
	if c, ok := l.inner.(interface{ Len() int }); ok {
		return c.Len()
	}
	return 0
}

func (l *tracedLog) Snapshot() ([]*store.Record, error)        { return l.inner.Snapshot() }
func (l *tracedLog) Replay(fn func(*store.Record) error) error { return l.inner.Replay(fn) }
func (l *tracedLog) Close() error                              { return l.inner.Close() }

// dialer returns a Dial hook for one hop that counts frames and bytes in
// both directions and records each request→reply round trip as a span.
// nil (plain TCP) when untraced.
func (t *tracer) dialer(hop string) func(addr string, timeout time.Duration) (net.Conn, error) {
	if t == nil {
		return nil
	}
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		t.mu.Lock()
		shard, ok := t.addrs[addr]
		t.mu.Unlock()
		if !ok {
			shard = -1
		}
		return &countingConn{Conn: c, t: t, hop: hop, shard: shard, rtt: -1}, nil
	}
}

// countingConn parses the frame stream it carries (transport's u32 kindLen
// | kind | i64 sender | u32 payloadLen | payload layout) in both
// directions. Client connections are used by one goroutine at a time, one
// reply per request, so a round trip runs from the first byte of a request
// to the last byte of its reply.
type countingConn struct {
	net.Conn
	t       *tracer
	hop     string
	shard   int
	out, in frameScan
	started time.Time
	rtt     int
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.out.feed(b, func() { c.started = time.Now() }, func(kind string, sender int) {
		c.t.mu.Lock()
		parent := c.t.op
		switch {
		case c.hop == hopMirror:
			parent = c.t.openIn(c.shard, spRepl)
		case sender != 0:
			if i, ok := c.t.reqRtr[sender]; ok {
				parent = i
			}
		}
		c.rtt = c.t.beginLocked(span{Name: hopSpan[c.hop], Kind: kind, Shard: c.shard, Parent: parent,
			First: sender, Start: c.t.at(c.started)})
		c.t.mu.Unlock()
	}, func(kind string, size int) {
		c.t.count("transport."+c.hop+".frames", 1)
		c.t.count("transport."+c.hop+".bytes", int64(size))
	})
	return c.Conn.Write(b)
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.in.feed(b[:n], func() {}, func(string, int) {}, func(kind string, size int) {
		c.t.count("transport."+c.hop+".frames", 1)
		c.t.count("transport."+c.hop+".bytes", int64(size))
		if kind == cluster.KindLog+"-ok" {
			c.t.count("transport.log_fetch.bytes", int64(size))
		}
		c.t.end(c.rtt)
		c.rtt = -1
	})
	return n, err
}

// frameScan is an incremental parser of one direction of a frame stream.
type frameScan struct {
	state   int // 0 kind length, 1 kind, 2 sender, 3 payload length, 4 payload
	inFrame bool
	hdr     [8]byte
	got     int
	kind    []byte
	left    int
	size    int
	sender  int
}

func (s *frameScan) feed(b []byte, start func(), header func(kind string, sender int), done func(kind string, size int)) {
	for len(b) > 0 {
		if !s.inFrame {
			s.inFrame, s.size, s.got, s.state = true, 0, 0, 0
			s.kind = s.kind[:0]
			start()
		}
		switch s.state {
		case 0, 2, 3:
			want := 4
			if s.state == 2 {
				want = 8
			}
			n := copy(s.hdr[s.got:want], b)
			s.got += n
			s.size += n
			b = b[n:]
			if s.got < want {
				return
			}
			s.got = 0
			switch s.state {
			case 0:
				s.left = int(binary.BigEndian.Uint32(s.hdr[:4]))
				s.state = 1
				if s.left == 0 {
					s.state = 2
				}
			case 2:
				s.sender = int(int64(binary.BigEndian.Uint64(s.hdr[:8])))
				header(string(s.kind), s.sender)
				s.state = 3
			case 3:
				s.left = int(binary.BigEndian.Uint32(s.hdr[:4]))
				s.state = 4
				if s.left == 0 {
					s.inFrame = false
					done(string(s.kind), s.size)
				}
			}
		case 1:
			n := min(len(b), s.left)
			s.kind = append(s.kind, b[:n]...)
			s.left -= n
			s.size += n
			b = b[n:]
			if s.left == 0 {
				s.state = 2
			}
		case 4:
			n := min(len(b), s.left)
			s.left -= n
			s.size += n
			b = b[n:]
			if s.left == 0 {
				s.inFrame = false
				done(string(s.kind), s.size)
			}
		}
	}
}

// serialLayers are the layers whose open span parents other spans (see
// the tracer type).
var serialLayers = []string{spRouterNode, spFollower, spMirror, spNode, spStandby, spAdmit, spRepl}

// checkSerial reports every pair of overlapping spans of one serialised
// layer on one shard.
func (t *tracer) checkSerial() []string {
	last := map[openKey]int{}
	var order []int
	for i := range t.spans {
		order = append(order, i)
	}
	sort.SliceStable(order, func(x, y int) bool { return t.spans[order[x]].Start < t.spans[order[y]].Start })
	var bad []string
	for _, i := range order {
		s := &t.spans[i]
		for _, name := range serialLayers {
			if s.Name != name {
				continue
			}
			k := openKey{s.Shard, s.Name}
			if j, ok := last[k]; ok && t.spans[j].End > s.Start {
				bad = append(bad, fmt.Sprintf("shard %d: %s spans %d and %d overlap, so spans nested in them may be misattributed", s.Shard, name, j, i))
			}
			if j, ok := last[k]; !ok || t.spans[j].End < s.End {
				last[k] = i
			}
		}
	}
	return bad
}

// children indexes the span tree.
func (t *tracer) children() [][]int {
	kids := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	return kids
}

// covered is how much of span i's interval the given spans cover (their
// union, clipped to i).
func (t *tracer) covered(i int, others []int) int64 {
	p := t.spans[i]
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, j := range others {
		a, b := max(t.spans[j].Start, p.Start), min(t.spans[j].End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
	var total, curA, curB int64
	for k, v := range ivs {
		if k == 0 || v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	return total + curB - curA
}

// writeSpans writes every span as JSON to path.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
