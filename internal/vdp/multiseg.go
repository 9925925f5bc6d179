package vdp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/store"
)

// The multi-segment core: the "K sub-sessions + merged seal" lifecycle that
// ShardedSession and SketchSession share. The core owns the K sub-sessions,
// the front door's state and epoch, the parallel Finalize with its retry
// contract, the merged-seal manifest record (appended at Finalize, healed by
// Reset, Compact and resume), the resume roll-forward, and the K-segment
// offline audit and live tail. A front door supplies only what differs — a
// segmentKind, its own Submit fan-out, and how the K per-segment results
// assemble into its release.

// segmentKind is what distinguishes one multi-segment front door from
// another.
type segmentKind struct {
	// noun names one segment in errors: "shard" or "sketch row".
	noun string
	// budgetAll runs the privacy-budget ledger on every segment (a shard
	// holds its clients' whole history); otherwise only segment 0 charges
	// (a sketch contribution is one admission across all rows).
	budgetAll bool
	// roster is the cross-segment admission invariant over one epoch's
	// sealed rosters (client IDs per segment, in seal order). The offline
	// audit and the live tail both run it.
	roster func(rosters [][]int) error
}

// budgetOn reports whether segment i carries the budget ledger.
func (k segmentKind) budgetOn(i int) bool { return k.budgetAll || i == 0 }

var (
	shardKind  = segmentKind{noun: "shard", budgetAll: true, roster: shardRoster}
	sketchKind = segmentKind{noun: "sketch row", roster: sketchRoster}
)

// shardRoster checks the shard map: every client sits on the shard ShardOf
// assigns it to, and no client appears on two shards.
func shardRoster(rosters [][]int) error {
	seen := make(map[int]int) // client ID -> shard
	for i, ids := range rosters {
		for _, id := range ids {
			if want := ShardOf(id, len(rosters)); want != i {
				return fmt.Errorf("%w: client %d appears on shard %d but the shard map assigns it to shard %d",
					ErrAuditFail, id, i, want)
			}
			if prev, dup := seen[id]; dup {
				return fmt.Errorf("%w: client %d appears on shards %d and %d", ErrAuditFail, id, prev, i)
			}
			seen[id] = i
		}
	}
	return nil
}

// sketchRoster checks the admission gate: row 0 admits first, so every
// client a later row seats must also sit on row 0.
func sketchRoster(rosters [][]int) error {
	row0 := make(map[int]bool, len(rosters[0]))
	for _, id := range rosters[0] {
		row0[id] = true
	}
	for r := 1; r < len(rosters); r++ {
		for _, id := range rosters[r] {
			if !row0[id] {
				return fmt.Errorf("%w: sketch row %d seats client %d, which row 0 never admitted", ErrAuditFail, r, id)
			}
		}
	}
	return nil
}

// checkRoster runs a roster rule over the transcripts' client IDs, in seal
// order.
func checkRoster(ts []*Transcript, rule func(rosters [][]int) error) error {
	ids := make([][]int, len(ts))
	for i, t := range ts {
		if t == nil {
			return fmt.Errorf("%w: shard %d transcript is missing", ErrAuditFail, i)
		}
		ids[i] = make([]int, len(t.Clients))
		for j, cp := range t.Clients {
			ids[i][j] = cp.ID
		}
	}
	return rule(ids)
}

// segmentedCore is the shared lifecycle; see the file comment.
type segmentedCore struct {
	pub  *Public
	opts SessionOptions
	kind segmentKind
	segs []*Session

	mu      sync.Mutex
	state   sessionState
	epoch   int
	resumed bool
}

// openSegments builds the core's k sub-sessions, each with its own engine
// worker slice and its own forkShard substream of one root seed — fresh, or
// with resume each recovered from its segment of opts.Segmented and then
// reconciled into one session (see reconcile).
func openSegments(ctx context.Context, pub *Public, opts SessionOptions, kind segmentKind, k int, resume bool) (*segmentedCore, error) {
	root, err := newRandSource(opts.Rand)
	if err != nil {
		return nil, err
	}
	c := &segmentedCore{pub: pub, opts: opts, kind: kind, resumed: resume}
	per := perShardWorkers(opts.Parallelism, k)
	for i := 0; i < k; i++ {
		// Each segment is an ordinary unsharded Session. Rand is cleared: the
		// root seed was already read, and segments get their substreams via
		// forkShard, never by re-reading the caller's reader.
		so := opts
		so.Shards, so.Segmented, so.Store, so.Rand, so.Parallelism = 0, nil, nil, nil, per
		if !kind.budgetOn(i) {
			so.Budget = nil
		}
		if opts.Segmented != nil {
			so.Store = opts.Segmented.Board(i)
		}
		if !resume {
			c.segs = append(c.segs, newSessionFromSource(NewEngine(pub, per), so, root.forkShard(i, k)))
			continue
		}
		s, err := resumeSessionFromSource(ctx, pub, so, root.forkShard(i, k))
		if err != nil {
			return nil, fmt.Errorf("vdp: resuming %s %d: %w", kind.noun, i, err)
		}
		c.segs = append(c.segs, s)
	}
	if resume {
		if err := c.reconcile(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// reconcile brings resumed segments back into one session:
//
//   - A crash mid-Reset leaves some segments an epoch ahead; the laggards
//     are rolled forward (their Reset is completed), so all agree on the
//     current epoch again.
//   - A crash mid-Finalize leaves some segments sealed and others open; the
//     session resumes open, and its Finalize reuses the sealed segments'
//     transcripts while finalizing the rest.
//   - A crash after every segment sealed but before the manifest's
//     merged-seal record landed is healed: the digest is recomputed from the
//     segment seals and the missing record appended. A manifest record that
//     disagrees with the recomputed digest is tampering and refuses to
//     resume.
func (c *segmentedCore) reconcile() error {
	for _, s := range c.segs {
		if s.Epoch() > c.epoch {
			c.epoch = s.Epoch()
		}
	}
	for i, s := range c.segs {
		for s.Epoch() < c.epoch {
			if err := s.Reset(); err != nil {
				return fmt.Errorf("vdp: rolling %s %d forward to epoch %d: %w", c.kind.noun, i, c.epoch, err)
			}
		}
	}
	seals, err := readMergedSeals(c.opts.Segmented)
	if err != nil {
		return err
	}
	for epoch := range seals {
		if epoch > c.epoch {
			return fmt.Errorf("vdp: manifest seals epoch %d but the segments have only reached epoch %d", epoch, c.epoch)
		}
	}
	want, merged := seals[c.epoch]
	ts := c.sealedLocked()
	if ts == nil {
		if merged {
			// The manifest claims the current epoch merged, yet some segment
			// holds no seal for it: a segment was truncated or swapped after
			// the fact. Refuse to build on doctored evidence.
			return fmt.Errorf("vdp: manifest seals epoch %d but not every %s segment is sealed", c.epoch, c.kind.noun)
		}
		return nil
	}
	for i, t := range ts {
		if t == nil {
			return fmt.Errorf("%w: %s %d is sealed but its transcript is not recoverable", ErrBadConfig, c.kind.noun, i)
		}
	}
	digest := MergedTranscriptDigest(c.pub, ts)
	if !merged {
		if err := appendMergedSeal(c.opts.Segmented, c.epoch, len(c.segs), digest); err != nil {
			return err
		}
	} else if !bytes.Equal(want, digest) {
		return fmt.Errorf("vdp: manifest merged seal for epoch %d disagrees with the %s seals", c.epoch, c.kind.noun)
	}
	c.state = sessionFinalized
	return nil
}

// sealedLocked returns every segment's sealed transcript for the current
// epoch (an entry is nil for a segment consumed by a protocol error), or nil
// when some segment has not sealed the epoch.
func (c *segmentedCore) sealedLocked() []*Transcript {
	ts := make([]*Transcript, len(c.segs))
	for i, s := range c.segs {
		if s.Epoch() != c.epoch || !s.Finalized() {
			return nil
		}
		ts[i] = s.SealedTranscript()
	}
	return ts
}

// Epoch returns the current epoch number.
func (c *segmentedCore) Epoch() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Resumed reports whether the session was recovered from a segmented board
// log.
func (c *segmentedCore) Resumed() bool { return c.resumed }

// Finalized reports whether the current epoch has been sealed by Finalize
// (and not yet reopened by Reset).
func (c *segmentedCore) Finalized() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state == sessionFinalized
}

// checkOpen refuses work on a session that is not accepting submissions.
func (c *segmentedCore) checkOpen() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state != sessionOpen {
		return fmt.Errorf("%w: session is %s", ErrBadConfig, c.state)
	}
	return nil
}

func (c *segmentedCore) setState(st sessionState) {
	c.mu.Lock()
	c.state = st
	c.mu.Unlock()
}

// finalize closes the current epoch on every segment in parallel, hands the
// K results to assemble, and binds the epoch with the merged digest — in
// the manifest too when durable. A segment that was already sealed (by a
// crash mid-finalize, or an earlier attempt) contributes its sealed
// transcript as-is instead of being finalized twice, so a retry re-merges
// to the identical digest.
func (c *segmentedCore) finalize(ctx context.Context, assemble func([]*RunResult) error) ([]byte, error) {
	c.mu.Lock()
	if c.state != sessionOpen {
		st := c.state
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: session is %s", ErrBadConfig, st)
	}
	c.state = sessionFinalizing
	epoch := c.epoch
	c.mu.Unlock()

	results := make([]*RunResult, len(c.segs))
	err := forEach(ctx, len(c.segs), len(c.segs), func(i int) error {
		s := c.segs[i]
		if s.Finalized() {
			t := s.SealedTranscript()
			if t == nil {
				return fmt.Errorf("%w: %s %d is finalized but its transcript is not recoverable", ErrBadConfig, c.kind.noun, i)
			}
			results[i] = &RunResult{Release: t.Release, Transcript: t, RejectedClients: s.Rejected()}
			return nil
		}
		res, err := s.Finalize(ctx)
		if err != nil {
			return fmt.Errorf("%s %d: %w", c.kind.noun, i, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		// A segment that could not complete — cancelled mid-stage, or its
		// seal append failed — reopens itself (Session.Finalize's retry
		// contract), while a segment consumed by a protocol error stays
		// finalized with no transcript. The epoch is retryable while the
		// cancellation is what failed or some segment is still open — but a
		// consumed segment can never merge, so its epoch is spent no matter
		// what state its siblings are in; retrying would only bury the
		// protocol error under lifecycle noise and, durably, seal sibling
		// segments for an epoch that cannot complete.
		retryable := errors.Is(err, ctxErr(ctx)) && ctxErr(ctx) != nil
		for _, s := range c.segs {
			if !s.Finalized() {
				retryable = true
			}
		}
		for _, s := range c.segs {
			if s.Finalized() && s.SealedTranscript() == nil {
				retryable = false
				break
			}
		}
		if retryable {
			c.setState(sessionOpen)
		} else {
			c.setState(sessionFinalized)
		}
		return nil, err
	}
	if err := assemble(results); err != nil {
		c.setState(sessionFinalized)
		return nil, err
	}
	ts := make([]*Transcript, len(results))
	for i, res := range results {
		ts[i] = res.Transcript
	}
	digest := MergedTranscriptDigest(c.pub, ts)
	if c.opts.Segmented != nil {
		if err := appendMergedSeal(c.opts.Segmented, epoch, len(c.segs), digest); err != nil {
			// The segments sealed durably but the epoch-binding manifest
			// record did not land. Reopen so Finalize can be retried
			// in-process once the store recovers: every segment is sealed
			// with its transcript kept, so the retry only re-attempts this
			// append. (Reset and resume heal the same gap, so choosing either
			// over a retry cannot orphan the epoch.)
			c.setState(sessionOpen)
			return nil, err
		}
	}
	c.setState(sessionFinalized)
	return digest, nil
}

// unionRejected merges the per-segment rejection maps.
func unionRejected(results []*RunResult) map[int]error {
	out := make(map[int]error)
	for _, res := range results {
		for id, err := range res.RejectedClients {
			out[id] = err
		}
	}
	return out
}

// Reset reopens the session for the next epoch: every segment advances its
// epoch (skipping segments that already advanced, so a retried Reset after a
// partial failure cannot double-advance one), and the merged epoch counter
// moves with them. A durable epoch whose segments all sealed but whose
// merged-seal manifest record never landed (a failed append, followed by
// the caller choosing Reset over a Finalize retry) is healed first —
// otherwise advancing past it would orphan a fully sealed epoch no offline
// audit could accept.
func (c *segmentedCore) Reset() error { return c.closeEpoch(false) }

// Compact closes a finalized epoch with per-segment snapshot records instead
// of Resets: each segment pins its sealed transcript's digest in its own log
// (the manifest's merged seal already binds them together), so a resume
// boots every segment from its snapshot. A segment whose sealed transcript
// is unrecoverable cannot be compacted — the error names it, and Reset
// remains the way to close such an epoch. Like Reset, a missing merged-seal
// manifest record is healed first, and a retry skips segments an earlier
// partial Compact already advanced.
func (c *segmentedCore) Compact() error { return c.closeEpoch(true) }

func (c *segmentedCore) closeEpoch(compact bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	verb := "resetting"
	if compact {
		verb = "compacting"
		if c.state != sessionFinalized {
			return fmt.Errorf("%w: only a finalized epoch can be compacted", ErrBadConfig)
		}
	} else if c.state == sessionFinalizing {
		return fmt.Errorf("%w: session is finalizing", ErrBadConfig)
	}
	if c.opts.Segmented != nil {
		if err := c.healMergedSealLocked(); err != nil {
			return err
		}
	}
	for i, s := range c.segs {
		if s.Epoch() > c.epoch {
			continue // already advanced by an earlier, partially failed call
		}
		next := s.Reset
		if compact {
			next = s.Compact
		}
		if err := next(); err != nil {
			return fmt.Errorf("vdp: %s %s %d: %w", verb, c.kind.noun, i, err)
		}
	}
	c.epoch++
	c.state = sessionOpen
	return nil
}

// healMergedSealLocked appends the current epoch's missing merged-seal
// manifest record when every segment is sealed with its transcript kept —
// the state a failed appendMergedSeal leaves behind. A no-op when the epoch
// is not fully sealed (nothing to bind), was consumed by a protocol error
// (no transcripts to bind), or is already sealed in the manifest. Callers
// hold c.mu.
func (c *segmentedCore) healMergedSealLocked() error {
	ts := c.sealedLocked()
	if ts == nil {
		return nil
	}
	for _, t := range ts {
		if t == nil {
			return nil
		}
	}
	seals, err := readMergedSeals(c.opts.Segmented)
	if err != nil {
		return err
	}
	if _, ok := seals[c.epoch]; ok {
		return nil
	}
	return appendMergedSeal(c.opts.Segmented, c.epoch, len(c.segs), MergedTranscriptDigest(c.pub, ts))
}

// auditSegments audits one epoch across K segment logs, in segment order:
// each log exactly as AuditLog audits a single board log (sealed transcript
// fully re-verified and cross-checked against the log's own arrival
// records), then the kind's roster rule over the K sealed rosters. It
// returns the merged digest over the K segment seals.
func auditSegments(ctx context.Context, pub *Public, logs []store.BoardLog, epoch, workers int, kind segmentKind) ([]byte, error) {
	if len(logs) == 0 {
		return nil, fmt.Errorf("%w: no segment logs to audit", ErrAuditFail)
	}
	ts := make([]*Transcript, len(logs))
	ds := make([][]byte, len(logs))
	for i, lg := range logs {
		t, d, err := auditLogEpoch(ctx, pub, lg, epoch, workers)
		if err != nil {
			return nil, fmt.Errorf("%s %d: %w", kind.noun, i, err)
		}
		ts[i], ds[i] = t, d
	}
	if err := checkRoster(ts, kind.roster); err != nil {
		return nil, err
	}
	return mergedDigestFromShards(ds), nil
}

// auditSegmentedEpoch is auditSegments over a segmented log, with the
// merged digest checked against the manifest's merged-seal record. epoch < 0
// selects the latest merged-sealed epoch.
func auditSegmentedEpoch(ctx context.Context, pub *Public, seg *store.SegmentedLog, epoch, workers int, kind segmentKind) error {
	seals, err := readMergedSeals(seg)
	if err != nil {
		return err
	}
	if epoch < 0 {
		for e := range seals {
			if e > epoch {
				epoch = e
			}
		}
		if epoch < 0 {
			return fmt.Errorf("%w: manifest holds no merged-sealed epoch", ErrAuditFail)
		}
	}
	want, ok := seals[epoch]
	if !ok {
		return fmt.Errorf("%w: manifest holds no merged seal for epoch %d", ErrAuditFail, epoch)
	}
	logs := make([]store.BoardLog, seg.Shards())
	for i := range logs {
		logs[i] = seg.Segment(i)
	}
	got, err := auditSegments(ctx, pub, logs, epoch, workers, kind)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%w: epoch %d merged digest disagrees with the manifest's merged seal", ErrAuditFail, epoch)
	}
	return nil
}

// newMergedTail builds a live auditor over k segments of the given kind:
// one TailAuditor per segment (with the budget policy where the kind
// charges), each reporting its verified rosters so the kind's roster rule
// runs once every segment has sealed an epoch.
func newMergedTail(pub *Public, k int, opts TailOptions, kind segmentKind) *MergedTailAuditor {
	m := &MergedTailAuditor{pub: pub, kind: kind, seals: make(map[int][]byte), rosters: make(map[int][][]int)}
	for i := 0; i < k; i++ {
		o := opts
		if !kind.budgetOn(i) {
			o.Budget = nil
		}
		a := NewTailAuditor(pub, o)
		a.onSeal = func(epoch int, ids []int) error { return m.noteRoster(i, epoch, ids) }
		m.shards = append(m.shards, a)
	}
	return m
}

// newSegmentedTail wires a merged tail of the given kind to every segment's
// (and the manifest's) store tail.
func newSegmentedTail(pub *Public, seg *store.SegmentedLog, opts TailOptions, kind segmentKind) (*SegmentedTail, error) {
	m := newMergedTail(pub, seg.Shards(), opts, kind)
	for i := 0; i < seg.Shards(); i++ {
		t, err := seg.Segment(i).Tail()
		if err != nil {
			m.Close()
			return nil, err
		}
		m.Shard(i).AttachTailer(t)
	}
	manTail, err := seg.Manifest().Tail()
	if err != nil {
		m.Close()
		return nil, err
	}
	return &SegmentedTail{merged: m, manTail: manTail}, nil
}
