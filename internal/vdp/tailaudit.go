package vdp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/morra"
	"repro/internal/pedersen"
	"repro/internal/store"
)

// Live audit tail: the analytical half of the board split. AuditLog
// re-verifies a sealed epoch from scratch — O(epoch) work after the fact —
// while a TailAuditor follows the board log as it is written. It runs the
// records through the same board-log grammar recovery and AuditLog run
// (grammar.go), and adds two pieces of rolling state on top: a Σ-OR window
// that verifies each arrival's board proof (so every logged verdict is
// cross-checked against the cryptography record by record), and the running
// Line-13 client product (the share commitments of every roster client,
// folded per bin and prover as verdicts land). At seal time the remaining
// work is O(M·nb·K) — fold the accumulator into the adjusted coin
// commitments, byte-compare the sealed client section against the roster,
// re-derive the release — independent of how many clients the epoch
// admitted. The one place the tail is stricter than AuditLog is positional
// order: the tail pins every client's seal position to its arrival order,
// while the offline audit compares the two rosters as sets.

// TailOptions configures a live audit tail.
type TailOptions struct {
	// Workers is the verification pool width (0 = GOMAXPROCS).
	Workers int
	// Window is how many unverified submissions accumulate before they are
	// folded through one batched Σ-OR check (0 = 64). A bigger window
	// amortizes the random-linear-combination batching better; any pending
	// remainder is flushed when a verdict needs it or at seal time.
	Window int
	// Budget, when set, makes the tail enforce the session's charging policy
	// in addition to replaying the charge chain: every admitted client must
	// be charged EpochCost at admission, budget refusals must be genuine
	// (the replayed spend really cannot afford another epoch), and no epoch
	// seals with an uncharged roster client. Without it the tail still
	// verifies chain integrity — any dropped, injected, or reordered charge
	// is flagged — but cannot judge whether the policy itself was honoured.
	Budget *BudgetConfig
}

// defaultTailWindow is the submission batch a tail verifies at once.
const defaultTailWindow = 64

// TailAuditor incrementally audits one board log (or one shard segment).
// Records are consumed in append order — via Feed, or by Poll draining an
// attached store.Tailer — and every grammar violation, forged verdict, or
// seal divergence is reported at the first divergent record, with its
// offset. Errors are sticky: a tail that has flagged its log refuses to
// consume further records, exactly like a human auditor who stops trusting
// a ledger at the first bad line.
//
// A TailAuditor is safe for concurrent use, though records must arrive in
// log order (one goroutine per log is the natural shape).
type TailAuditor struct {
	pub     *Public
	workers int
	window  int

	mu     sync.Mutex
	tailer store.Tailer
	err    error

	shardIdx   int
	shardCount int

	recIdx  int // records consumed, all epochs
	g       *boardGrammar
	pending []*boardClient // submissions awaiting the batched Σ-OR check
	// prod[j][pk] is the running product of the roster clients' share
	// commitments for bin j, prover pk — Line 13's client factor, built as
	// verdicts land so the seal-time check never walks the roster again.
	prod    [][]*pedersen.Commitment
	digest  []byte         // the live epoch's verified digest, once sealed
	history map[int][]byte // sealed epoch -> verified digest
	// ledger replays the budget-charge chain across epochs (budgets are
	// lifetime state, so epoch boundaries never touch it). Chain integrity
	// is always enforced; policy checks additionally when TailOptions.Budget
	// was provided.
	ledger *budgetLedger
	// onSeal, when set, receives every verified epoch's roster (client IDs
	// in seal order); a multi-segment tail checks its roster rule there.
	onSeal func(epoch int, ids []int) error
}

// NewTailAuditor creates a live auditor for a single board log. Feed it
// records directly, or AttachTailer + Poll to drain a store tail.
func NewTailAuditor(pub *Public, opts TailOptions) *TailAuditor {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	window := opts.Window
	if window <= 0 {
		window = defaultTailWindow
	}
	return &TailAuditor{
		pub:        pub,
		workers:    workers,
		window:     window,
		shardCount: 1,
		g:          newBoardGrammar(pub, 0),
		history:    make(map[int][]byte),
		ledger:     newBudgetLedger(opts.Budget),
	}
}

// TailAuditLog opens a live tail on a tailable board log: the returned
// auditor drains new records on every Poll.
func TailAuditLog(pub *Public, log store.TailableLog, opts TailOptions) (*TailAuditor, error) {
	t, err := log.Tail()
	if err != nil {
		return nil, err
	}
	a := NewTailAuditor(pub, opts)
	a.AttachTailer(t)
	return a, nil
}

// SetShard pins the auditor to one shard of a sharded deployment: every
// submission must belong to shard index under ShardOf(id, count), so a
// curator cannot smuggle a client onto a shard of its choosing. Call before
// feeding any record.
func (a *TailAuditor) SetShard(index, count int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.shardIdx, a.shardCount = index, count
}

// AttachTailer hands the auditor a store tail to drain on Poll. The auditor
// owns the tailer from here: Close closes it.
func (a *TailAuditor) AttachTailer(t store.Tailer) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.tailer = t
}

// Poll drains every record the attached tailer has available, returning how
// many were consumed. A store-level corruption error or an audit failure is
// sticky and returned from every later call; running out of appended
// records is not an error.
func (a *TailAuditor) Poll() (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err != nil {
		return 0, a.err
	}
	if a.tailer == nil {
		return 0, fmt.Errorf("vdp: tail: no tailer attached")
	}
	n := 0
	for {
		rec, off, err := a.tailer.Next()
		if errors.Is(err, store.ErrNoRecord) {
			return n, nil
		}
		if err != nil {
			a.err = err
			return n, err
		}
		if err := a.feedLocked(rec, off); err != nil {
			return n, err
		}
		n++
	}
}

// Feed consumes one record (at the given log offset) in append order.
func (a *TailAuditor) Feed(rec *store.Record, off int64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err != nil {
		return a.err
	}
	return a.feedLocked(rec, off)
}

func (a *TailAuditor) feedLocked(rec *store.Record, off int64) error {
	if err := a.consume(rec, off); err != nil {
		a.err = err
		return err
	}
	a.recIdx++
	return nil
}

// errAt stamps an audit failure with the record index and offset it was
// detected at — the first divergent record, since errors are sticky.
func (a *TailAuditor) errAt(off int64, format string, args ...any) error {
	return fmt.Errorf("%w: tail record %d (offset %d): %s", ErrAuditFail, a.recIdx, off, fmt.Sprintf(format, args...))
}

// consume runs one record through the board-log grammar, then through the
// tail's own verification of what the record claims.
func (a *TailAuditor) consume(rec *store.Record, off int64) error {
	c, err := a.g.step(rec)
	if err != nil {
		return a.errAt(off, "%v", err)
	}
	switch rec.Kind {
	case RecordSubmission:
		id := c.sub.Public.ID
		if a.shardCount > 1 {
			if want := ShardOf(id, a.shardCount); want != a.shardIdx {
				return a.errAt(off, "client %d belongs to shard %d, not shard %d", id, want, a.shardIdx)
			}
		}
		c.offset = off
		a.pending = append(a.pending, c)
		if len(a.pending) >= a.window {
			return a.flushPending()
		}
	case RecordVerdict:
		return a.checkVerdict(c, off)
	case RecordBudgetCharge:
		if err := a.ledger.apply(rec.Payload); err != nil {
			return a.errAt(off, "%v", err)
		}
	case RecordSeal, RecordSealChunk:
		if ep := a.g.ep; ep.sealed {
			if err := a.verifySeal(ep.seal, off); err != nil {
				return err
			}
			if a.onSeal != nil {
				ids := make([]int, len(ep.seal.clientRaw))
				for i, c := range ep.roster() {
					ids[i] = c.sub.Public.ID
				}
				if err := a.onSeal(ep.n, ids); err != nil {
					return a.errAt(off, "%v", err)
				}
			}
		}
	case RecordReset, RecordSnapshot:
		a.pending, a.prod, a.digest = nil, nil, nil
	}
	return nil
}

// checkVerdict cross-checks a logged verdict against the tail's own
// verification: the log's claim and the cryptography must agree, record by
// record.
func (a *TailAuditor) checkVerdict(c *boardClient, off int64) error {
	id := c.sub.Public.ID
	if c.overBudget {
		// A budget refusal is decided before any verification runs, so the
		// proof cross-check below does not apply — the tail instead verifies
		// the refusal's *justification* against its replayed ledger (when it
		// knows the policy): a server claiming exhaustion for a client whose
		// spend affords another epoch is suppressing data.
		if cfg := a.ledger.cfg; cfg != nil && a.ledger.spent[id]+cfg.EpochCost <= cfg.Total {
			return a.errAt(off, "client %d refused over budget, but its replayed spend (%d of %d µε) affords another epoch",
				id, a.ledger.spent[id], cfg.Total)
		}
		return nil
	}
	if !c.checked {
		if err := a.flushPending(); err != nil {
			return err
		}
	}
	switch {
	case c.reject == nil && !c.valid:
		return a.errAt(off, "client %d accepted, but its board proof fails (submission at offset %d)", id, c.offset)
	case c.reject != nil && c.onBoard && c.valid:
		return a.errAt(off, "client %d rejected on the board, but its board proof verifies (submission at offset %d)", id, c.offset)
	case c.reject != nil && !c.onBoard && !c.valid:
		// A payload (private-channel) rejection implies the board proof
		// passed — Session.verify decides the board first and attributes
		// board failures as on-board verdicts.
		return a.errAt(off, "client %d refused off-board as a payload dispute, but its board proof fails (submission at offset %d)", id, c.offset)
	}
	if c.reject == nil {
		a.fold(c)
	}
	return nil
}

// flushPending decides every pending submission's board proof with one
// batched Σ-OR check — the same filterValidClientsBatch the session and the
// offline auditor use, so all three always reach identical verdicts.
// Submissions the grammar has since dropped (superseded, withdrawn, refused
// over budget) are skipped.
func (a *TailAuditor) flushPending() error {
	ep := a.g.ep
	live := a.pending[:0]
	for _, c := range a.pending {
		if ep.byID[c.sub.Public.ID] == c && !c.overBudget {
			live = append(live, c)
		}
	}
	a.pending = nil
	if len(live) == 0 {
		return nil
	}
	pubs := make([]*ClientPublic, len(live))
	for i, c := range live {
		pubs[i] = c.sub.Public
	}
	_, rejected, err := a.pub.filterValidClientsBatch(context.Background(), pubs, a.workers)
	if err != nil {
		return err
	}
	for _, c := range live {
		_, bad := rejected[c.sub.Public.ID]
		c.checked, c.valid = true, !bad
	}
	return nil
}

// fold accumulates one roster client's share commitments into the running
// Line-13 product. Commitment Add is immutable, so seal-time reads copy
// freely.
func (a *TailAuditor) fold(c *boardClient) {
	if c.folded || !c.valid {
		return
	}
	m := a.pub.cfg.Bins
	k := a.pub.cfg.Provers
	if a.prod == nil {
		a.prod = make([][]*pedersen.Commitment, m)
		for j := 0; j < m; j++ {
			a.prod[j] = make([]*pedersen.Commitment, k)
			for pk := 0; pk < k; pk++ {
				a.prod[j][pk] = a.pub.pp.Zero()
			}
		}
	}
	for j := 0; j < m; j++ {
		for pk := 0; pk < k; pk++ {
			a.prod[j][pk] = a.prod[j][pk].Add(c.sub.Public.ShareCommitments[j][pk])
		}
	}
	c.folded = true
}

// verifySeal is the O(1) seal-time check (constant in the epoch's client
// count): flush the last unchecked window, byte-compare the sealed client
// section against the roster in arrival order, then verify only the
// O(M·nb·K) tail — coin proofs, Morra coins, the Line-13 equation with the
// pre-folded client product, and the aggregation — and derive the
// transcript digest without ever re-decoding a client.
func (a *TailAuditor) verifySeal(sp *splitSeal, off int64) error {
	if err := a.flushPending(); err != nil {
		return err
	}
	ep := a.g.ep
	if id, ok := ep.uncharged(a.ledger.cfg != nil); ok {
		// Admission always charges: a client reaching the seal uncharged
		// means the curator gave away a free epoch.
		return a.errAt(off, "epoch %d seals with client %d uncharged", ep.n, id)
	}
	roster := ep.roster()
	// Clients still undecided at seal time (a DeferVerification session
	// writes no per-arrival verdicts) join the product by their Σ-OR
	// verdict, exactly as Finalize's batch check decides them.
	for _, c := range roster {
		if !c.decided {
			a.fold(c)
		}
	}
	if len(sp.clientRaw) != len(roster) {
		return a.errAt(off, "seal lists %d clients, the live tail admitted %d", len(sp.clientRaw), len(roster))
	}
	for i, raw := range sp.clientRaw {
		if !bytes.Equal(raw, roster[i].raw) {
			return a.errAt(off, "seal position %d disagrees with the logged submission of client %d (offset %d)",
				i, roster[i].sub.Public.ID, roster[i].offset)
		}
	}

	k := a.pub.cfg.Provers
	m := a.pub.cfg.Bins
	st := &sp.tail
	if len(st.CoinMsgs) != k || len(st.Morra) != k || len(st.Outputs) != k {
		return a.errAt(off, "seal covers %d/%d/%d prover records, want %d",
			len(st.CoinMsgs), len(st.Morra), len(st.Outputs), k)
	}
	if st.Release == nil {
		return a.errAt(off, "seal carries no release")
	}

	// Per-prover checks, concurrently, mirroring auditParallel — but Line
	// 13's client factor is the rolling product, not a roster walk.
	inner := a.workers / k
	if inner < 1 {
		inner = 1
	}
	pv := NewVerifierParallel(a.pub, inner)
	err := forEach(context.Background(), a.workers, k, func(pk int) error {
		msg := st.CoinMsgs[pk]
		if msg.Prover != pk {
			return fmt.Errorf("coin message %d claims prover %d", pk, msg.Prover)
		}
		if err := pv.VerifyCoinCommitments(msg); err != nil {
			return err
		}
		rec := st.Morra[pk]
		xs, err := morra.Combine(a.pub.pp, rec.Commits, rec.Reveals)
		if err != nil {
			return fmt.Errorf("morra record for prover %d: %v", pk, err)
		}
		bits := morra.Bits(xs)
		if len(bits) != m*a.pub.nb {
			return fmt.Errorf("morra record for prover %d has %d coins, want %d", pk, len(bits), m*a.pub.nb)
		}
		adjusted, err := pv.AdjustedCoinCommitments(msg, reshapeBits(bits, m, a.pub.nb))
		if err != nil {
			return err
		}
		out := st.Outputs[pk]
		if out.Prover != pk {
			return fmt.Errorf("output %d claims prover %d", pk, out.Prover)
		}
		if len(out.Y) != m || len(out.Z) != m {
			return fmt.Errorf("prover %d output covers %d/%d bins, want %d", pk, len(out.Y), len(out.Z), m)
		}
		for j := 0; j < m; j++ {
			e := a.pub.pp.Zero()
			if a.prod != nil {
				e = a.prod[j][pk]
			}
			for _, c := range adjusted[j] {
				e = e.Add(c)
			}
			if !a.pub.pp.Verify(e, out.Y[j], out.Z[j]) {
				return fmt.Errorf("prover %d bin %d: commitment product does not open to reported (y, z)", pk, j)
			}
		}
		return nil
	})
	if err != nil {
		return a.errAt(off, "seal: %v", err)
	}

	release, err := NewVerifierParallel(a.pub, a.workers).Aggregate(st.Outputs)
	if err != nil {
		return a.errAt(off, "seal: %v", err)
	}
	if len(release.Raw) != len(st.Release.Raw) {
		return a.errAt(off, "seal release has %d bins, aggregation produces %d", len(st.Release.Raw), len(release.Raw))
	}
	for j := range release.Raw {
		if release.Raw[j] != st.Release.Raw[j] {
			return a.errAt(off, "seal bin %d = %d, aggregation produces %d", j, st.Release.Raw[j], release.Raw[j])
		}
	}

	a.digest = sp.digest(a.pub)
	a.history[ep.n] = a.digest
	return nil
}

// Epoch returns the epoch the tail is currently following.
func (a *TailAuditor) Epoch() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.g.ep.n
}

// Records returns how many records the tail has consumed.
func (a *TailAuditor) Records() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.recIdx
}

// Clients returns the live roster-shadow size for the current epoch.
func (a *TailAuditor) Clients() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.g.ep.roster())
}

// Sealed reports whether the current epoch's seal has been verified.
func (a *TailAuditor) Sealed() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.digest != nil
}

// Digest returns the current epoch's verified transcript digest (nil until
// the epoch seals cleanly). It equals TranscriptDigest over the sealed
// transcript.
func (a *TailAuditor) Digest() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.digest
}

// LedgerDigest returns the tail's replayed budget-ledger chain head — the
// genesis digest before any charge. When the followed session runs a
// budget, this must equal Session.LedgerDigest byte for byte; a mismatch
// means the two replayed different charge streams.
func (a *TailAuditor) LedgerDigest() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ledger.digest()
}

// VerifiedDigest returns the verified digest of a sealed epoch the tail has
// followed, and whether that epoch has sealed yet.
func (a *TailAuditor) VerifiedDigest(epoch int) ([]byte, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	d, ok := a.history[epoch]
	return d, ok
}

// ReverifySeal re-runs the seal-time verification walk against the state
// the tail has accumulated for the live epoch, without consuming a record
// or moving the grammar position. Feed/Poll callers never need it: it
// exists so the perf harness can time the constant-cost seal step in
// isolation from the per-arrival work it rides on.
func (a *TailAuditor) ReverifySeal(sealBytes []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	sp, err := a.pub.splitSealedTranscript(sealBytes)
	if err != nil {
		return a.errAt(-1, "seal: %v", err)
	}
	return a.verifySeal(sp, -1)
}

// Err returns the sticky audit failure, if any.
func (a *TailAuditor) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// Close releases the attached tailer, if any.
func (a *TailAuditor) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.tailer == nil {
		return nil
	}
	t := a.tailer
	a.tailer = nil
	return t.Close()
}

// MergedTailAuditor follows a multi-segment epoch live: one TailAuditor
// per segment plus the manifest's merged-seal stream. Once every segment has
// verified an epoch's seal, the front door's roster rule runs over the K
// sealed rosters — the same rule the offline audit runs: for a sharded
// deployment, every client on the shard ShardOf assigns it (so none on a
// foreign shard or on two), for a sketch, no row seating a client row 0 did
// not admit. VerifyMerged reproduces MergedTranscriptDigest from the
// per-segment verified digests and cross-checks the manifest's claim.
type MergedTailAuditor struct {
	pub    *Public
	kind   segmentKind
	shards []*TailAuditor

	mu      sync.Mutex
	seals   map[int][]byte
	manIdx  int
	rosters map[int][][]int // epoch -> verified rosters, until every segment has sealed it
}

// NewMergedTailAuditor creates a live auditor for a K-shard deployment.
func NewMergedTailAuditor(pub *Public, shards int, opts TailOptions) *MergedTailAuditor {
	if shards < 1 {
		shards = 1
	}
	return newMergedTail(pub, shards, opts, shardKind)
}

// noteRoster collects segment seg's verified roster for an epoch and runs
// the roster rule once every segment has reported; the rosters are dropped
// as soon as the rule has run, so only epochs still sealing are retained.
func (m *MergedTailAuditor) noteRoster(seg, epoch int, ids []int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs := m.rosters[epoch]
	if rs == nil {
		rs = make([][]int, len(m.shards))
		m.rosters[epoch] = rs
	}
	rs[seg] = ids
	for _, r := range rs {
		if r == nil {
			return nil
		}
	}
	delete(m.rosters, epoch)
	return m.kind.roster(rs)
}

// Shards returns the shard count.
func (m *MergedTailAuditor) Shards() int { return len(m.shards) }

// Shard returns shard i's TailAuditor; feed it that shard's records.
func (m *MergedTailAuditor) Shard(i int) *TailAuditor { return m.shards[i] }

// FeedManifest consumes one manifest record, under the same manifest
// grammar readMergedSeals enforces.
func (m *MergedTailAuditor) FeedManifest(rec *store.Record, off int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := m.manIdx
	m.manIdx++
	if err := applyMergedSeal(m.seals, rec, len(m.shards)); err != nil {
		return fmt.Errorf("%w: manifest record %d (offset %d): %v", ErrAuditFail, i, off, err)
	}
	return nil
}

// SetMergedSeal registers an externally-fetched merged-seal claim — the
// RPC-tail counterpart of FeedManifest, for followers that learn the seal
// from a cluster node instead of a manifest log. Re-registering the same
// claim is a no-op; a conflicting claim for an epoch already registered is
// an audit failure (two merged seals for one epoch means a forked merge).
func (m *MergedTailAuditor) SetMergedSeal(epoch, shards int, digest []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if shards != len(m.shards) {
		return fmt.Errorf("%w: merged seal for epoch %d claims %d shards, tail follows %d",
			ErrAuditFail, epoch, shards, len(m.shards))
	}
	if prev, ok := m.seals[epoch]; ok {
		if !bytes.Equal(prev, digest) {
			return fmt.Errorf("%w: conflicting merged seals for epoch %d", ErrAuditFail, epoch)
		}
		return nil
	}
	m.seals[epoch] = append([]byte(nil), digest...)
	return nil
}

// VerifyMerged reports on a merged epoch: once every shard has sealed and
// verified it, the merged digest is derived from the per-shard digests (in
// shard order, exactly MergedTranscriptDigest) and checked against the
// manifest's merged seal when one has arrived. ready is false while some
// shard has not sealed the epoch yet; a shard that has flagged its segment
// makes VerifyMerged fail outright.
func (m *MergedTailAuditor) VerifyMerged(epoch int) (digest []byte, ready bool, err error) {
	ds := make([][]byte, len(m.shards))
	for i, a := range m.shards {
		if err := a.Err(); err != nil {
			return nil, false, fmt.Errorf("%s %d: %w", m.kind.noun, i, err)
		}
		d, ok := a.VerifiedDigest(epoch)
		if !ok {
			return nil, false, nil
		}
		ds[i] = d
	}
	digest = mergedDigestFromShards(ds)
	m.mu.Lock()
	want, ok := m.seals[epoch]
	m.mu.Unlock()
	if ok && !bytes.Equal(want, digest) {
		return nil, true, fmt.Errorf("%w: manifest merged seal for epoch %d disagrees with the live per-shard audits",
			ErrAuditFail, epoch)
	}
	return digest, true, nil
}

// SegmentedTail is the live counterpart of AuditSegmentedLog: a
// MergedTailAuditor wired to every segment's (and the manifest's) store
// tail, drained together by Poll.
type SegmentedTail struct {
	merged  *MergedTailAuditor
	manTail store.Tailer
}

// TailAuditMerged opens a live audit tail over a segmented board log.
func TailAuditMerged(pub *Public, seg *store.SegmentedLog, opts TailOptions) (*SegmentedTail, error) {
	return newSegmentedTail(pub, seg, opts, shardKind)
}

// Merged returns the underlying merged auditor.
func (st *SegmentedTail) Merged() *MergedTailAuditor { return st.merged }

// Poll drains every shard tail and the manifest tail, returning the total
// records consumed. The first shard or manifest failure is returned (shard
// failures are sticky in their TailAuditor).
func (st *SegmentedTail) Poll() (int, error) {
	n := 0
	for i, a := range st.merged.shards {
		k, err := a.Poll()
		n += k
		if err != nil {
			return n, fmt.Errorf("%s %d: %w", st.merged.kind.noun, i, err)
		}
	}
	for {
		rec, off, err := st.manTail.Next()
		if errors.Is(err, store.ErrNoRecord) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if err := st.merged.FeedManifest(rec, off); err != nil {
			return n, err
		}
		n++
	}
}

// VerifyMerged reports on a merged epoch; see MergedTailAuditor.
func (st *SegmentedTail) VerifyMerged(epoch int) ([]byte, bool, error) {
	return st.merged.VerifyMerged(epoch)
}

// Close releases every attached store tail.
func (st *SegmentedTail) Close() error {
	err := st.merged.Close()
	if st.manTail != nil {
		if cerr := st.manTail.Close(); err == nil {
			err = cerr
		}
		st.manTail = nil
	}
	return err
}

// Close releases every shard's attached tailer.
func (m *MergedTailAuditor) Close() error {
	var first error
	for _, a := range m.shards {
		if err := a.Close(); first == nil {
			first = err
		}
	}
	return first
}
