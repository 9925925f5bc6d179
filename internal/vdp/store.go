package vdp

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"

	"repro/internal/store"
)

// Durable bulletin board: the session's integration with internal/store.
//
// A Session given SessionOptions.Store appends every admitted submission and
// every per-client verdict to the board log at Submit time, seals the full
// transcript at Finalize, and marks epoch boundaries at Reset. ResumeSession
// replays that log to reconstruct the session after a crash, so a restarted
// server continues the same epoch — with the same roster, in the same board
// order — and finalizes to a byte-identical TranscriptDigest (given the same
// seed). AuditLog lets a third party audit a sealed epoch offline from the
// log alone.
//
// Record layout (store.Record.Kind):
//
//	RecordSubmission  payload = EncodeClientSubmission (public + K payloads)
//	RecordVerdict     payload = client ID, accepted, on-board, reason
//	RecordWithdraw    payload = client ID (cancelled mid-verification)
//	RecordSeal        payload = EncodeTranscript (the epoch's full board)
//	RecordSealChunk   payload = index, total, piece (oversized seal split)
//	RecordReset       payload = empty (epoch closed by Reset)
//	RecordSnapshot    payload = epoch, TranscriptDigest (epoch compacted)
//	RecordBudgetCharge payload = client, epoch, amount, cumulative, chain
//	                   digest (privacy-budget debit; see ledger.go)
//
// Submission records are appended while the session's reservation lock is
// held, so log order always equals board order — that is what makes the
// recovered transcript byte-identical rather than merely equivalent.
const (
	RecordSubmission uint8 = 1
	RecordVerdict    uint8 = 2
	RecordSeal       uint8 = 3
	RecordReset      uint8 = 4
	RecordWithdraw   uint8 = 5
	// RecordSealChunk carries one piece of a sealed transcript too large
	// for a single store record (an epoch with very many clients or coins).
	// Chunks are appended in order; the epoch counts as sealed only when
	// the final chunk lands, and a chunk with index 0 restarts assembly (a
	// crash mid-seal leaves a partial sequence that the Finalize retry
	// supersedes).
	RecordSealChunk uint8 = 6
	// RecordSnapshot compacts a sealed epoch: its payload pins the epoch's
	// TranscriptDigest, and the record doubles as the epoch boundary (no
	// RecordReset follows — the snapshot is the boundary). Boot-time replay
	// stops decoding at the last snapshot and reconstructs only the records
	// after it, while the full evidence stays in the log for AuditLog to
	// verify offline. Session.Compact writes it; a snapshot of an unsealed
	// epoch, or one whose digest disagrees with the seal it follows, is a
	// grammar violation.
	RecordSnapshot uint8 = 8
)

// encodeSnapshot serializes a snapshot record body.
func encodeSnapshot(epoch int, digest []byte) []byte {
	var w wireWriter
	w.version()
	w.u32(uint32(epoch))
	w.lpBytes(digest)
	return w.b
}

// decodeSnapshot parses a snapshot record body.
func decodeSnapshot(b []byte) (epoch int, digest []byte, err error) {
	r := wireReader{b: b}
	r.version()
	epoch = int(r.u32())
	digest = r.lpBytes()
	if err := r.finish(); err != nil {
		return 0, nil, err
	}
	if len(digest) != sha256.Size {
		return 0, nil, fmt.Errorf("vdp: snapshot digest is %d bytes, want %d", len(digest), sha256.Size)
	}
	return epoch, digest, nil
}

// snapshotMark locates the newest snapshot in a board log.
type snapshotMark struct {
	index  int // record index of the snapshot
	epoch  int // the sealed epoch it pins
	digest []byte
}

// lastSnapshot scans a board log for its newest well-formed snapshot
// record. The scan reads frames but decodes no submissions or seals, so it
// stays cheap even on logs holding many compacted epochs. A malformed
// snapshot is not an error here: recovery replays from the previous
// boundary, and the grammar refuses it in log order.
func lastSnapshot(log store.BoardLog) (*snapshotMark, error) {
	var out *snapshotMark
	i := -1
	err := log.Replay(func(rec *store.Record) error {
		i++
		if rec.Kind != RecordSnapshot {
			return nil
		}
		if epoch, digest, err := decodeSnapshot(rec.Payload); err == nil && epoch == int(rec.Epoch) {
			out = &snapshotMark{index: i, epoch: epoch, digest: digest}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sealChunkSize caps one seal record's payload. It sits well under the
// store's per-record decode limit; a var so tests can shrink it to exercise
// chunked assembly without gigabyte transcripts.
var sealChunkSize = 16 << 20

// encodeSealChunk serializes one piece of an oversized seal.
func encodeSealChunk(index, total int, piece []byte) []byte {
	var w wireWriter
	w.version()
	w.u32(uint32(index))
	w.u32(uint32(total))
	w.bytes(piece)
	return w.b
}

// decodeSealChunk parses a seal-chunk record body.
func decodeSealChunk(b []byte) (index, total int, piece []byte, err error) {
	r := wireReader{b: b}
	r.version()
	index = int(r.u32())
	total = int(r.u32())
	piece = r.b
	if r.err != nil {
		return 0, 0, nil, r.err
	}
	if total < 1 || index < 0 || index >= total {
		return 0, 0, nil, fmt.Errorf("vdp: seal chunk %d of %d out of range", index, total)
	}
	return index, total, piece, nil
}

// sealAssembly accumulates seal chunks during replay.
type sealAssembly struct {
	total  int
	next   int
	pieces [][]byte
}

// add folds one chunk in, returning the completed seal payload once the
// final chunk lands (nil otherwise). A chunk with index 0 restarts the
// assembly; an out-of-sequence chunk is a grammar violation.
func (a *sealAssembly) add(body []byte) ([]byte, error) {
	index, total, piece, err := decodeSealChunk(body)
	if err != nil {
		return nil, err
	}
	if index == 0 {
		a.total, a.next, a.pieces = total, 0, nil
	}
	if total != a.total || index != a.next {
		return nil, fmt.Errorf("vdp: seal chunk %d of %d arrived out of sequence (expected %d of %d)",
			index, total, a.next, a.total)
	}
	a.pieces = append(a.pieces, piece)
	a.next++
	if a.next < a.total {
		return nil, nil
	}
	var out []byte
	for _, p := range a.pieces {
		out = append(out, p...)
	}
	a.total, a.next, a.pieces = 0, 0, nil
	return out, nil
}

// track advances the assembly without retaining chunk bytes, for callers
// that only need to know when a chunked seal completes (SealedEpochs).
func (a *sealAssembly) track(body []byte) (complete bool, err error) {
	index, total, _, err := decodeSealChunk(body)
	if err != nil {
		return false, err
	}
	if index == 0 {
		a.total, a.next, a.pieces = total, 0, nil
	}
	if total != a.total || index != a.next {
		return false, fmt.Errorf("vdp: seal chunk %d of %d arrived out of sequence (expected %d of %d)",
			index, total, a.next, a.total)
	}
	a.next++
	if a.next < a.total {
		return false, nil
	}
	a.total, a.next = 0, 0
	return true, nil
}

// appendSeal persists a sealed transcript, splitting it across chunk
// records when it exceeds one store record's capacity.
func (s *Session) appendSeal(epoch int, payload []byte) error {
	if len(payload) <= sealChunkSize {
		return s.appendRecord(RecordSeal, epoch, payload)
	}
	total := (len(payload) + sealChunkSize - 1) / sealChunkSize
	for i := 0; i < total; i++ {
		lo := i * sealChunkSize
		hi := lo + sealChunkSize
		if hi > len(payload) {
			hi = len(payload)
		}
		if err := s.appendRecord(RecordSealChunk, epoch, encodeSealChunk(i, total, payload[lo:hi])); err != nil {
			return err
		}
	}
	return nil
}

// encodeVerdict serializes a per-client verdict record body.
func encodeVerdict(id int, reject error, onBoard bool) []byte {
	var w wireWriter
	w.version()
	w.u32(uint32(id))
	accepted := byte(1)
	reason := ""
	if reject != nil {
		accepted = 0
		reason = reject.Error()
	}
	board := byte(0)
	if onBoard {
		board = 1
	}
	w.bytes([]byte{accepted, board})
	w.lpBytes([]byte(reason))
	return w.b
}

// decodeVerdict parses a verdict record body. A recorded rejection is
// rehydrated as an ErrClientReject-wrapped error with the original reason,
// so errors.Is checks behave identically before and after a restart.
func decodeVerdict(b []byte) (id int, reject error, onBoard bool, err error) {
	r := wireReader{b: b}
	r.version()
	id = int(r.u32())
	flags := r.take(2)
	reason := r.lpBytes()
	if ferr := r.finish(); ferr != nil {
		return 0, nil, false, ferr
	}
	onBoard = flags[1] == 1
	if flags[0] == 0 {
		s := strings.TrimPrefix(string(reason), ErrClientReject.Error()+": ")
		reject = fmt.Errorf("%w: %s", ErrClientReject, s)
	}
	return id, reject, onBoard, nil
}

// encodeWithdraw serializes a withdraw record body.
func encodeWithdraw(id int) []byte {
	var w wireWriter
	w.version()
	w.u32(uint32(id))
	return w.b
}

// decodeWithdraw parses a withdraw record body.
func decodeWithdraw(b []byte) (int, error) {
	r := wireReader{b: b}
	r.version()
	id := int(r.u32())
	if err := r.finish(); err != nil {
		return 0, err
	}
	return id, nil
}

// appendRecord persists one record for the session's current epoch. A nil
// store is a no-op (the in-memory default).
func (s *Session) appendRecord(kind uint8, epoch int, payload []byte) error {
	if s.opts.Store == nil {
		return nil
	}
	if err := s.opts.Store.Append(&store.Record{Kind: kind, Epoch: uint32(epoch), Payload: payload}); err != nil {
		return fmt.Errorf("vdp: board log append: %w", err)
	}
	return nil
}

// groupCommitLog is the optional store fast path for records appended under
// the roster lock: the ordered write happens inside the lock (log order
// must equal board order), while the expensive durability flush is deferred
// to a Sync outside it, so concurrent Submits share one group-commit fsync
// instead of serializing a flush each. FileLog implements it.
type groupCommitLog interface {
	AppendNoSync(*store.Record) error
	Sync() error
}

// appendRecordOrdered writes one record in log order without forcing it to
// stable storage when the store supports deferred syncing; the caller must
// follow up with syncStore before acknowledging the record. Stores without
// the fast path get a plain (synchronous) Append.
func (s *Session) appendRecordOrdered(kind uint8, epoch int, payload []byte) error {
	if s.opts.Store == nil {
		return nil
	}
	gc, ok := s.opts.Store.(groupCommitLog)
	if !ok {
		return s.appendRecord(kind, epoch, payload)
	}
	if err := gc.AppendNoSync(&store.Record{Kind: kind, Epoch: uint32(epoch), Payload: payload}); err != nil {
		return fmt.Errorf("vdp: board log append: %w", err)
	}
	return nil
}

// syncStore makes every record appended so far durable. A no-op for stores
// without deferred syncing (their Appends were already synchronous).
func (s *Session) syncStore() error {
	gc, ok := s.opts.Store.(groupCommitLog)
	if !ok {
		return nil
	}
	if err := gc.Sync(); err != nil {
		return fmt.Errorf("vdp: board log sync: %w", err)
	}
	return nil
}

// ResumeSession reconstructs a session from its board log after a restart.
// The log is replayed to the last epoch boundary: sealed and reset epochs
// are skipped over, and the final epoch's submissions are re-admitted in
// their original board order. Submissions whose verdicts were persisted are
// installed verbatim; submissions that never got one (the process died
// between the submission append and the verdict append, or the session ran
// with DeferVerification) are re-verified now — on the engine pool, with the
// same checks Submit would have run — and their recovered verdicts are
// appended to the log. The resumed session therefore finalizes to the exact
// TranscriptDigest an uninterrupted run would have produced (byte-identical
// when opts.Rand carries the original seed).
//
// If the last epoch in the log is already sealed, the session resumes in the
// finalized state: call Reset to open the next epoch. opts.Store must be the
// replayed log; it receives all further records.
func ResumeSession(ctx context.Context, pub *Public, opts SessionOptions) (*Session, error) {
	if opts.Shards > 1 || opts.Segmented != nil {
		return nil, fmt.Errorf("%w: a sharded session is recovered with ResumeShardedSession", ErrBadConfig)
	}
	root, err := newRandSource(opts.Rand)
	if err != nil {
		return nil, err
	}
	return resumeSessionFromSource(ctx, pub, opts, root)
}

// resumeSessionFromSource is ResumeSession over an already-derived root
// randomness source; ResumeShardedSession uses it to hand every shard its
// own fork of one root seed.
func resumeSessionFromSource(ctx context.Context, pub *Public, opts SessionOptions, root *randSource) (*Session, error) {
	if opts.Store == nil {
		return nil, fmt.Errorf("%w: ResumeSession needs SessionOptions.Store", ErrBadConfig)
	}
	// Snapshot boot: a compacted log carries a digest-pinned boundary for
	// every sealed-and-compacted epoch, so recovery decodes only the records
	// after the newest one instead of re-deriving every prior epoch. The
	// skipped evidence stays in the log; AuditLog still verifies it offline.
	snap, err := lastSnapshot(opts.Store)
	if err != nil {
		return nil, err
	}
	skipTo, startEpoch := -1, 0
	if snap != nil {
		skipTo, startEpoch = snap.index, snap.epoch+1
	}
	g := newBoardGrammar(pub, startEpoch)
	i := -1
	err = opts.Store.Replay(func(rec *store.Record) error {
		if i++; i <= skipTo {
			return nil
		}
		if _, err := g.step(rec); err != nil {
			return fmt.Errorf("vdp: board log record %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	st := g.ep
	s := newSessionFromSource(NewEngine(pub, opts.Parallelism), opts, root)
	s.resumed = true
	s.epoch = st.n
	s.rs = s.root.fork(st.n)
	if st.sealed {
		s.state = sessionFinalized
		t, err := st.seal.transcript(pub)
		if err != nil {
			return nil, fmt.Errorf("vdp: sealed transcript for epoch %d: %w", st.n, err)
		}
		s.sealedT = t
	}
	if opts.Budget != nil {
		if err := opts.Budget.validate(); err != nil {
			return nil, err
		}
		// Rebuild the charge chain from the full log (charges are lifetime
		// state, so the scan ignores snapshot boundaries) and re-verify every
		// link against the configured policy. The resumed chain head is what
		// LedgerDigest exposes — byte-identical to the crashed session's.
		led, err := replayLedger(opts.Store, opts.Budget)
		if err != nil {
			return nil, err
		}
		s.ledger = led
	}

	for _, rc := range st.order {
		id := rc.sub.Public.ID
		cl := &sessionClient{public: rc.sub.Public, payloads: rc.sub.Payloads}
		if !rc.decided && !st.sealed && s.ledger != nil && !s.ledger.canCharge(st.n, id) {
			// The crash interrupted a budget refusal (submission record down,
			// refusal verdict lost). Re-refuse exactly as the live session
			// would have: verdict on the log, ID reserved off-board, no
			// charge, no verification.
			refusal := budgetRefusalError(id, s.ledger.spent[id], s.ledger.cfg.EpochCost, s.ledger.cfg.Total)
			rc.decided, rc.reject, rc.onBoard = true, refusal, false
			if err := s.appendRecord(RecordVerdict, st.n, encodeVerdict(id, refusal, false)); err != nil {
				return nil, err
			}
		} else if !rc.decided && !st.sealed {
			if s.ledger != nil && !st.charged[id] {
				// An admitted client without a charge means the crash beat the
				// charge append; converge by charging now, like the live
				// admission would have.
				if payload, commit := s.ledger.prepareCharge(st.n, id); payload != nil {
					if err := s.appendRecord(RecordBudgetCharge, st.n, payload); err != nil {
						return nil, err
					}
					commit()
				}
			}
			if !opts.DeferVerification {
				// The crash hit between the submission and verdict appends (or
				// the original session deferred). Re-verify with Submit's exact
				// checks and persist the recovered verdict so the log converges.
				verdict, onBoard, err := s.verify(ctx, rc.sub)
				if err != nil {
					return nil, fmt.Errorf("vdp: re-verifying client %d during resume: %w", id, err)
				}
				rc.decided, rc.reject, rc.onBoard = true, verdict, onBoard
				if err := s.appendRecord(RecordVerdict, st.n, encodeVerdict(id, verdict, onBoard)); err != nil {
					return nil, err
				}
			}
		}
		cl.decided = rc.decided
		cl.reject = rc.reject
		s.byID[cl.public.ID] = cl
		if rc.reject != nil {
			s.rejected[cl.public.ID] = rc.reject
		}
		if rc.offBoard() {
			// Refused off the board: ID stays reserved, public part never reaches
			// the board — same as the live Submit path.
			continue
		}
		s.order = append(s.order, cl)
	}
	return s, nil
}

// AuditLog audits a sealed epoch offline, from the board log alone: the
// epoch's sealed transcript is decoded and fully re-verified (every client
// proof, coin proof, Morra record, Line-13 product and the aggregation —
// exactly Audit), and the seal is cross-checked against the log's own
// submission records, so a log whose per-arrival records disagree with the
// transcript it sealed is rejected even if the transcript verifies in
// isolation. epoch < 0 selects the latest sealed epoch. workers follows the
// AuditParallel convention (0 = all cores).
func AuditLog(ctx context.Context, pub *Public, log store.BoardLog, epoch, workers int) error {
	if epoch < 0 {
		// Resolve "latest sealed" with a cheap seal-only scan before the
		// decoding pass, so auditing never decodes epochs it will not check.
		sealed, err := SealedEpochs(log)
		if err != nil {
			return err
		}
		if len(sealed) == 0 {
			return fmt.Errorf("%w: board log holds no sealed epoch", ErrAuditFail)
		}
		epoch = sealed[len(sealed)-1]
	}
	_, _, err := auditLogEpoch(ctx, pub, log, epoch, workers)
	return err
}

// auditLogEpoch is the per-epoch core of AuditLog: it runs the board-log
// grammar over the log — decoding only the audited epoch's records, while
// every other record is held to the epoch sequence — then cross-checks the
// seal against the arrival evidence, fully re-verifies the sealed
// transcript, and returns it with its digest (so the multi-segment auditors
// can merge per-segment verdicts).
func auditLogEpoch(ctx context.Context, pub *Public, log store.BoardLog, epoch, workers int) (*Transcript, []byte, error) {
	g := newBoardGrammar(pub, 0)
	var ep *boardEpoch // the audited epoch's grammar state, once it opens
	i := -1
	err := log.Replay(func(rec *store.Record) error {
		i++
		var err error
		if int(rec.Epoch) == epoch {
			if g.ep.n == epoch {
				ep = g.ep
			}
			_, err = g.step(rec)
		} else {
			err = g.skip(rec)
		}
		if err != nil {
			return fmt.Errorf("%w: board log record %d: %v", ErrAuditFail, i, err)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if ep == nil || !ep.sealed {
		return nil, nil, fmt.Errorf("%w: epoch %d is not sealed in the board log", ErrAuditFail, epoch)
	}
	// Ledger cross-checks. The charge chain spans epochs (budgets are
	// lifetime state), so its integrity is verified over the whole log — a
	// cheap scan that decodes only charge records. Within the audited epoch
	// the charging policy must hold wherever the log shows the ledger ran.
	if _, lerr := replayLedger(log, nil); lerr != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrAuditFail, lerr)
	}
	if id, ok := ep.uncharged(false); ok {
		return nil, nil, fmt.Errorf("%w: epoch %d admitted client %d without a budget charge", ErrAuditFail, epoch, id)
	}
	t, err := ep.seal.transcript(pub)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: sealed transcript for epoch %d: %v", ErrAuditFail, epoch, err)
	}

	// The seal must list exactly the log's roster: every sealed client was
	// logged at Submit time with identical bytes and kept on the board, and
	// every roster client made it onto the seal. The check is set-based; a
	// live tail additionally pins each client's seal position.
	logged := make(map[int][]byte, len(ep.order))
	for _, c := range ep.roster() {
		logged[c.sub.Public.ID] = c.raw
	}
	for i, cp := range t.Clients {
		raw, ok := logged[cp.ID]
		if !ok {
			return nil, nil, fmt.Errorf("%w: epoch %d seal lists client %d, which the log holds no board submission for",
				ErrAuditFail, epoch, cp.ID)
		}
		if !bytes.Equal(raw, ep.seal.clientRaw[i]) {
			return nil, nil, fmt.Errorf("%w: epoch %d seal disagrees with the logged submission of client %d",
				ErrAuditFail, epoch, cp.ID)
		}
		delete(logged, cp.ID)
	}
	for id := range logged {
		return nil, nil, fmt.Errorf("%w: epoch %d: client %d was admitted to the board but is missing from the seal",
			ErrAuditFail, epoch, id)
	}
	rejected, err := auditBoard(ctx, pub, t, workers)
	if err != nil {
		return nil, nil, err
	}
	// Every logged verdict must agree with the proofs, as the live tail
	// checks on arrival: an accepted client's board proof verifies, a
	// client rejected on the board has a failing one, and a payload dispute
	// (refused off the board) implies the board proof passed. Budget
	// refusals are decided before any verification.
	var disputed []*ClientPublic
	for _, c := range ep.order {
		id := c.sub.Public.ID
		_, bad := rejected[id]
		switch {
		case !c.decided || c.overBudget:
		case c.offBoard():
			disputed = append(disputed, c.sub.Public)
		case (c.reject == nil) == bad:
			return nil, nil, fmt.Errorf("%w: epoch %d logs a verdict for client %d that its board proof contradicts",
				ErrAuditFail, epoch, id)
		}
	}
	if len(disputed) > 0 {
		_, bad, err := pub.filterValidClientsBatch(ctx, disputed, NewEngine(pub, workers).Workers())
		if err != nil {
			return nil, nil, err
		}
		for id := range bad {
			return nil, nil, fmt.Errorf("%w: epoch %d refused client %d off-board as a payload dispute, but its board proof fails",
				ErrAuditFail, epoch, id)
		}
	}
	return t, ep.seal.digest(pub), nil
}

// SealedEpochs returns the epochs a board log has sealed, in order. A
// chunk-split seal counts once its final chunk lands.
func SealedEpochs(log store.BoardLog) ([]int, error) {
	var out []int
	assemblies := make(map[int]*sealAssembly)
	err := log.Replay(func(rec *store.Record) error {
		switch rec.Kind {
		case RecordSeal:
			out = append(out, int(rec.Epoch))
		case RecordSealChunk:
			a := assemblies[int(rec.Epoch)]
			if a == nil {
				a = &sealAssembly{}
				assemblies[int(rec.Epoch)] = a
			}
			done, err := a.track(rec.Payload)
			if err != nil {
				return err
			}
			if done {
				out = append(out, int(rec.Epoch))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// errLogNotEmpty distinguishes "the store already holds records" inside
// NewSession's emptiness probe.
var errLogNotEmpty = errors.New("vdp: board log is not empty")
