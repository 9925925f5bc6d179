package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
	"repro/internal/vdp"
)

// Workload constants (documented in README.md).
const (
	batchSize   = 64  // members per submit-batch frame
	forgeEvery  = 8   // admit-batch: one forged member in every 8th frame
	poolFrames  = 16  // admit-batch: frames per round (one fresh cluster each)
	fillClients = 256 // release-audit: honest clients per epoch
	auditReps   = 2   // AuditCluster passes per epoch close; audit_s is the median over all of them
)

// admit-batch splits a pass's seconds between admission and epoch closes:
// a quarter goes to admission, and one epoch is closed per closeSeconds of
// the pass (a close, with its auditReps audits of a 1024-client epoch,
// takes about 7.5 s on a 2-vCPU host).
const (
	admitShare   = 0.25
	closeSeconds = 8.0
)

// admitCloses is the number of epochs an admit-batch pass closes.
func admitCloses(seconds float64) int { return max(1, int(math.Round(seconds/closeSeconds))) }

// settle collects the garbage earlier phases left before a timed section
// starts, as testing.B does before a benchmark, so one section's
// collection work does not land in the next one's time.
func settle() { runtime.GC() }

// bench holds what every pass of a run shares.
type bench struct {
	ctx    context.Context
	pub    *vdp.Public
	seed   uint64
	root   []byte
	budget *vdp.BudgetConfig
	dir    string
	boots  int

	mu        sync.Mutex
	gates     []string // failed correctness checks
	attempted int
	failed    int
	parity    bool // the single-process digest parity check has run
}

func (b *bench) fail(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.gates) < 20 {
		b.gates = append(b.gates, fmt.Sprintf(format, args...))
	}
}

func (b *bench) tally(attempted, failed int) {
	b.mu.Lock()
	b.attempted += attempted
	b.failed += failed
	b.mu.Unlock()
}

// boot starts a fresh cluster in its own directory.
func (b *bench) boot(tr *tracer) (*topology, error) {
	b.boots++
	return bootTopology(b.ctx, b.pub, filepath.Join(b.dir, fmt.Sprintf("cluster%d", b.boots)), b.root, b.budget, tr)
}

// pass is one measured pass of a workload: the whole run untraced, or
// the untraced and the traced half of a traced run. Its admission is a
// sequence of rounds, each on a fresh cluster. Throughput is taken per
// round and reported as the median across rounds, so one stall (a slow
// fsync on a shared disk, say) moves one round's figure, not the run's.
// Verdict latencies are one sample per frame, pooled over a segment of
// the pass — on admit-batch, the rounds between two epoch closes (about
// 85 frames in a 40 s pass); on release-audit, the whole pass (about 28
// frames) — and the pass reports the median over segments.
type pass struct {
	tr *tracer

	mu     sync.Mutex
	rounds []*round
	lat    []float64        // per-frame send → verdicts, ms
	cuts   []int            // segment ends in lat
	subs   int              // submissions sent in admission
	adm    map[string]int64 // tracer counter deltas over admission

	release, tailCert, audit []float64 // seconds
	fetchNew, fetchShipped   int       // follower records: new vs shipped
	fetchOps                 int       // polls and audits that shipped node logs
}

// round is one admission round on one cluster.
type round struct {
	accepted int
	dur      time.Duration
}

func newPass(tr *tracer) *pass { return &pass{tr: tr, adm: map[string]int64{}} }

// admission runs fn as one admission round: its wall time counts toward
// admit_sps and its counter deltas toward the per-submission counts.
func (p *pass) admission(fn func()) {
	r := &round{}
	p.mu.Lock()
	p.rounds = append(p.rounds, r)
	p.mu.Unlock()
	before := p.tr.counters()
	settle()
	t0 := time.Now()
	fn()
	r.dur = time.Since(t0)
	for k, v := range p.tr.counters() {
		p.adm[k] += v - before[k]
	}
}

// cut ends the current segment of verdict samples.
func (p *pass) cut() {
	p.mu.Lock()
	p.cuts = append(p.cuts, len(p.lat))
	p.mu.Unlock()
}

// verdictP50 is the median over segments of the segments' medians.
func (p *pass) verdictP50() float64 {
	var meds []float64
	from := 0
	for _, to := range append(p.cuts[:len(p.cuts):len(p.cuts)], len(p.lat)) {
		if to > from {
			meds = append(meds, median(p.lat[from:to]))
		}
		from = to
	}
	return median(meds)
}

// admitted is the pass's admission time so far.
func (p *pass) admitted() time.Duration {
	var d time.Duration
	for _, r := range p.rounds {
		d += r.dur
	}
	return d
}

// record notes one answered frame in the current round.
func (p *pass) record(fr *frame, took time.Duration, accepted int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lat = append(p.lat, float64(took)/float64(time.Millisecond))
	p.rounds[len(p.rounds)-1].accepted += accepted
	p.subs += len(fr.ids)
}

// send puts one frame through a client connection and checks every
// verdict: honest members accepted, forged members rejected with an
// ErrClientReject reason.
func (b *bench) send(p *pass, cli *transport.Client, fr *frame) {
	root := p.tr.request(fr.ids[0])
	sent := time.Now()
	reply, err := cli.RoundTrip(fr.wire())
	took := time.Since(sent)
	p.tr.end(root)
	var verdicts []vdp.BatchVerdict
	switch {
	case err != nil:
	case reply.Kind != "batch-verdicts":
		err = fmt.Errorf("unexpected reply %q: %.200s", reply.Kind, reply.Payload)
	default:
		verdicts, err = vdp.DecodeBatchVerdicts(reply.Payload)
	}
	if err == nil && len(verdicts) != len(fr.ids) {
		err = fmt.Errorf("%d verdicts for %d members", len(verdicts), len(fr.ids))
	}
	if err != nil {
		b.fail("frame of client %d: %v", fr.ids[0], err)
		b.tally(len(fr.ids), len(fr.ids))
		p.record(fr, took, 0)
		return
	}
	accepted, failed := 0, 0
	for j, v := range verdicts {
		switch {
		case v.ID != fr.ids[j]:
			b.fail("verdict %d of frame %d is for client %d", j, fr.ids[0], v.ID)
			failed++
		case fr.forged[v.ID]:
			if v.Accepted || !strings.Contains(v.Reason, vdp.ErrClientReject.Error()) {
				b.fail("forged client %d: accepted=%v reason %q", v.ID, v.Accepted, v.Reason)
			}
		case v.Accepted:
			accepted++
		default:
			b.fail("honest client %d rejected: %s", v.ID, v.Reason)
			failed++
		}
	}
	b.tally(len(fr.ids), failed)
	p.record(fr, took, accepted)
}

// closedLoop sends frames over the given client connections, each
// connection sending its next frame as soon as the previous verdicts
// arrive, until the frames run out.
func (b *bench) closedLoop(p *pass, clients []*transport.Client, frames []*frame) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, cli := range clients {
		wg.Add(1)
		go func(cli *transport.Client) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(frames) {
					return
				}
				b.send(p, cli, frames[k])
			}
		}(cli)
	}
	wg.Wait()
}

// checkAdmission checks the cluster's own record of an admission phase:
// the router counted exactly the honest members, every forged member sits
// on its shard's board with an ErrClientReject verdict and nothing else
// does, and each standby mirrored everything its primary acknowledged.
func (b *bench) checkAdmission(tp *topology, sent []*frame) {
	honest := 0
	forged := map[int]bool{}
	for _, fr := range sent {
		honest += len(fr.ids) - len(fr.forged)
		for id := range fr.forged {
			forged[id] = true
		}
	}
	if got := tp.router.Accepted(); got != honest {
		b.fail("router accepted %d, want the %d honest members", got, honest)
	}
	onBoard := 0
	for i, n := range tp.nodes {
		for id, err := range n.Session().Rejected() {
			if !forged[id] || !errors.Is(err, vdp.ErrClientReject) {
				b.fail("shard %d rejected client %d: %v", i, id, err)
			}
			onBoard++
		}
		acked := tp.boards[i].(interface{ Acked() int }).Acked()
		if m := tp.sbys[i].MirroredRecords(); m < acked {
			b.fail("shard %d: standby mirrored %d records, primary acknowledged %d", i, m, acked)
		}
	}
	if onBoard != len(forged) {
		b.fail("%d board rejections, want the %d forged members", onBoard, len(forged))
	}
}

// closeEpoch closes the cluster's open epoch the way the three parties see
// it: a live follower catches up, the router releases the merged count
// (FinalizeMerge), the follower certifies the sealed epoch, and the router
// audits it across nodes. All digests must agree; when parity is due the
// merged digest must also equal a single-process ShardedSession's on the
// same inputs, seed and per-shard arrival order.
func (b *bench) closeEpoch(p *pass, tp *topology, pop *population, first int) {
	tr := p.tr
	fol, closeFol, err := tp.follower(b.pub, b.budget, tr)
	if err != nil {
		b.fail("opening follower: %v", err)
		b.tally(2+auditReps, 2+auditReps)
		return
	}
	defer closeFol()
	poll := func() error {
		n, err := fol.Poll()
		shipped := 0
		for _, r := range fol.Records() {
			shipped += r
		}
		p.fetchNew += n
		p.fetchShipped += shipped
		p.fetchOps++
		return err
	}

	sp := tr.operation(spCatchup, first)
	err = poll()
	tr.end(sp)
	if err != nil {
		b.fail("follower catch-up: %v", err)
	}

	settle()
	sp = tr.operation(spFinalize, first)
	t0 := time.Now()
	mres, err := tp.router.FinalizeMerge(b.ctx)
	p.release = append(p.release, time.Since(t0).Seconds())
	tr.end(sp)
	if err != nil {
		b.fail("finalize-merge: %v", err)
		b.tally(2+auditReps, 2+auditReps)
		return
	}

	settle()
	sp = tr.operation(spCertify, first)
	t0 = time.Now()
	var certified []byte
	for certified == nil && err == nil {
		if err = poll(); err == nil {
			var ready bool
			if _, certified, ready, err = fol.VerifyNext(); err == nil && !ready {
				if time.Since(t0) > time.Minute {
					err = fmt.Errorf("sealed epoch not certified within a minute")
				}
			}
		}
	}
	p.tailCert = append(p.tailCert, time.Since(t0).Seconds())
	tr.end(sp)

	failed := 0
	if err != nil {
		b.fail("live certification: %v", err)
		failed++
	} else if !bytes.Equal(certified, mres.Digest) {
		b.fail("follower certified %x, finalize-merge sealed %x", certified, mres.Digest)
	}

	// The audit is read-only, so it is repeated: an auditor's second pass
	// does the same work, and more samples steady the median.
	for r := 0; r < auditReps; r++ {
		settle()
		sp = tr.operation(spAudit, first)
		t0 = time.Now()
		rep, aerr := tp.router.AuditCluster(b.ctx, -1, 0)
		p.audit = append(p.audit, time.Since(t0).Seconds())
		tr.end(sp)
		p.fetchOps++
		if aerr != nil {
			b.fail("cross-node audit: %v", aerr)
			failed++
		} else if rep.Source != "logs" || !bytes.Equal(rep.Digest, mres.Digest) {
			b.fail("audit (%s grade) digest %x, finalize-merge sealed %x", rep.Source, rep.Digest, mres.Digest)
		}
	}
	b.tally(2+auditReps, failed)

	if !b.parity {
		b.parity = true
		if err := b.checkParity(pop, mres.Transcripts, mres.Digest); err != nil {
			b.fail("single-process parity: %v", err)
		}
	}
}

// checkParity replays the sealed epoch's per-shard board order (forged
// members included: a rejected client stays on the board) into a
// single-process ShardedSession seeded like the cluster and compares
// digests (the TestClusterDigestParity property).
func (b *bench) checkParity(pop *population, ts []*vdp.Transcript, want []byte) error {
	ref, err := vdp.NewShardedSession(b.pub, vdp.SessionOptions{
		Rand: bytes.NewReader(b.root), Shards: shards, Budget: b.budget,
	})
	if err != nil {
		return err
	}
	for _, t := range ts {
		var subs []*vdp.ClientSubmission
		for _, c := range t.Clients {
			subs = append(subs, pop.byID[c.ID])
		}
		for off := 0; off < len(subs); off += vdp.MaxBatchClients {
			vs, err := ref.SubmitBatch(b.ctx, subs[off:min(off+vdp.MaxBatchClients, len(subs))])
			if err != nil {
				return err
			}
			for j, v := range vs {
				if forged := pop.forged[subs[off+j].Public.ID]; forged != (v != nil) {
					return fmt.Errorf("reference verdict for client %d (forged=%v): %v", subs[off+j].Public.ID, forged, v)
				}
			}
		}
	}
	res, err := ref.Finalize(b.ctx)
	if err != nil {
		return err
	}
	if !bytes.Equal(res.Digest, want) {
		return fmt.Errorf("cluster digest %x, single-process digest %x", want, res.Digest)
	}
	return nil
}

// runAdmitBatch: rounds of the closed loop over the whole frame pool, each
// on a fresh cluster, until the pass's admission time reaches admitShare
// of seconds. After each closes'th part of that admission time the
// round's epoch (always the full pool) is closed.
func (b *bench) runAdmitBatch(p *pass, pop *population, tp *topology, seconds float64) error {
	total := time.Duration(seconds * admitShare * float64(time.Second))
	closes := admitCloses(seconds)
	for closed := 0; closed < closes; {
		p.admission(func() { b.closedLoop(p, tp.clients, pop.frames) })
		b.checkAdmission(tp, pop.frames)
		if p.admitted() >= total*time.Duration(closed+1)/time.Duration(closes) {
			b.closeEpoch(p, tp, pop, pop.frames[0].ids[0])
			p.cut()
			closed++
		}
		tp.close()
		if closed < closes {
			var err error
			if tp, err = b.boot(p.tr); err != nil {
				return err
			}
		}
	}
	return nil
}

// runReleaseAudit: per round a fresh cluster (so every epoch is epoch 0
// with the same log size), filled with its own disjoint population, then
// closed.
func (b *bench) runReleaseAudit(p *pass, pops []*population, tp *topology) error {
	for _, pop := range pops {
		if tp == nil {
			var err error
			if tp, err = b.boot(p.tr); err != nil {
				return err
			}
		}
		// One connection: the fill's frames go one after another.
		p.admission(func() { b.closedLoop(p, tp.clients[:1], pop.frames) })
		b.checkAdmission(tp, pop.frames)
		b.closeEpoch(p, tp, pop, pop.frames[0].ids[0])
		tp.close()
		tp = nil
	}
	return nil
}
