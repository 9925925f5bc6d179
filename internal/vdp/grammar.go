package vdp

import (
	"bytes"
	"fmt"

	"repro/internal/store"
)

// The board-log grammar: the one per-epoch state machine every reader of a
// board log runs. ResumeSession rebuilds a crashed session from it, AuditLog
// cross-checks a seal against it before re-verifying the transcript, and a
// TailAuditor verifies each arrival and folds the Line-13 product as it
// advances — so recovery, offline audit and live audit accept exactly the
// logs a Session can write, and refuse everything else at the same record.
//
// The rules, per epoch:
//
//   - every record carries the live epoch; a Reset (empty payload) or a
//     Snapshot (pinning the sealed transcript's digest) closes it;
//   - a submission reserves its client ID; a retry of an undecided client
//     supersedes the earlier submission (its withdrawal record was lost),
//     while a retry of a decided client is a duplicate;
//   - each reserved client gets at most one verdict, and a withdrawal only
//     before it; an accepted verdict always keeps the client on the board;
//   - a budget charge names a reserved client at most once per epoch, and
//     never one refused over budget (in either record order);
//   - once the seal lands, only the closing Reset or Snapshot may follow.
//     Chunks of a split seal arrive in sequence; any other record abandons
//     a partial sequence (the shape a crash mid-seal leaves, which a
//     Finalize retry restarts at chunk 0), so a record spliced between
//     chunks leaves the remaining chunks out of sequence.

// boardClient is one submission holding a reserved client ID in the live
// epoch, with the verdict the log recorded for it.
type boardClient struct {
	sub        *ClientSubmission
	raw        []byte // the encoded ClientPublic, exactly as logged
	decided    bool
	reject     error
	onBoard    bool
	overBudget bool // the verdict was a budget refusal

	// Live-tail verification state; recovery and the offline audit leave
	// it unset.
	offset  int64 // submission record offset, for error attribution
	checked bool  // board proof decided by the batched Σ-OR check
	valid   bool  // board proof verdict
	folded  bool  // share commitments folded into the running product
}

// offBoard reports whether a verdict refused the client off the board: its
// ID stays reserved, but its public part never reaches the seal.
func (c *boardClient) offBoard() bool { return c.decided && c.reject != nil && !c.onBoard }

// boardEpoch is the grammar's state for one epoch.
type boardEpoch struct {
	n       int
	sealed  bool
	seal    *splitSeal // the sealed transcript, once the seal lands
	chunks  sealAssembly
	order   []*boardClient // every reserved ID, in arrival order
	byID    map[int]*boardClient
	charged map[int]bool // clients charged this epoch (survives a supersede)
}

func newBoardEpoch(n int) *boardEpoch {
	return &boardEpoch{n: n, byID: make(map[int]*boardClient), charged: make(map[int]bool)}
}

// roster returns the epoch's board clients in arrival order — every
// reserved ID except those refused off the board. A seal lists exactly
// these clients.
func (ep *boardEpoch) roster() []*boardClient {
	out := make([]*boardClient, 0, len(ep.order))
	for _, c := range ep.order {
		if !c.offBoard() {
			out = append(out, c)
		}
	}
	return out
}

// uncharged returns a client the epoch should have charged but did not:
// once the ledger is known to run — policy is set, or the epoch holds a
// charge or a budget refusal — every reserved client not refused over
// budget was charged at admission.
func (ep *boardEpoch) uncharged(policy bool) (int, bool) {
	active := policy || len(ep.charged) > 0
	for _, c := range ep.order {
		active = active || c.overBudget
	}
	for _, c := range ep.order {
		if id := c.sub.Public.ID; active && !c.overBudget && !ep.charged[id] {
			return id, true
		}
	}
	return 0, false
}

// drop splices a client out of the arrival order.
func (ep *boardEpoch) drop(c *boardClient) {
	for i, o := range ep.order {
		if o == c {
			ep.order = append(ep.order[:i], ep.order[i+1:]...)
			return
		}
	}
}

// boardGrammar runs the grammar over a log, one record at a time. Errors
// carry no position: each reader stamps the record index (and offset) its
// own way.
type boardGrammar struct {
	pub *Public
	ep  *boardEpoch
}

func newBoardGrammar(pub *Public, epoch int) *boardGrammar {
	return &boardGrammar{pub: pub, ep: newBoardEpoch(epoch)}
}

// skip advances past a record without decoding its payload: only the epoch
// sequence is checked. The offline audit uses it for epochs it does not
// audit.
func (g *boardGrammar) skip(rec *store.Record) error {
	if int(rec.Epoch) != g.ep.n {
		return fmt.Errorf("belongs to epoch %d, current epoch is %d", rec.Epoch, g.ep.n)
	}
	if rec.Kind == RecordReset || rec.Kind == RecordSnapshot {
		g.ep = newBoardEpoch(g.ep.n + 1)
	}
	return nil
}

// step consumes one record, returning the client it names (submission,
// verdict, withdrawal, charge), if any.
func (g *boardGrammar) step(rec *store.Record) (*boardClient, error) {
	ep := g.ep
	if int(rec.Epoch) != ep.n {
		return nil, fmt.Errorf("belongs to epoch %d, current epoch is %d", rec.Epoch, ep.n)
	}
	if ep.sealed && rec.Kind != RecordReset && rec.Kind != RecordSnapshot {
		return nil, fmt.Errorf("kind %d after epoch %d was sealed", rec.Kind, ep.n)
	}
	if rec.Kind != RecordSealChunk {
		ep.chunks = sealAssembly{}
	}
	switch rec.Kind {
	case RecordSubmission:
		return g.submission(rec.Payload)
	case RecordVerdict:
		return g.verdict(rec.Payload)
	case RecordWithdraw:
		id, err := decodeWithdraw(rec.Payload)
		if err != nil {
			return nil, fmt.Errorf("withdrawal: %w", err)
		}
		c := ep.byID[id]
		if c == nil {
			return nil, fmt.Errorf("withdrawal of unknown client %d", id)
		}
		if c.decided {
			// A session only withdraws clients whose verification never
			// completed; this is a forgery trying to erase a decided client.
			return nil, fmt.Errorf("withdrawal of decided client %d (verdict already on the board)", id)
		}
		delete(ep.byID, id)
		ep.drop(c)
		return c, nil
	case RecordBudgetCharge:
		id, chEpoch, _, _, _, err := decodeBudgetCharge(rec.Payload)
		if err != nil {
			return nil, fmt.Errorf("budget charge: %w", err)
		}
		if chEpoch != ep.n {
			return nil, fmt.Errorf("budget charge pins epoch %d, current epoch is %d", chEpoch, ep.n)
		}
		c := ep.byID[id]
		if c == nil {
			// A session only charges a client whose submission record is
			// already on the log (the charge follows it in one commit).
			return nil, fmt.Errorf("budget charge for unknown client %d", id)
		}
		if c.overBudget {
			return nil, fmt.Errorf("budget charge for client %d, which was refused over budget", id)
		}
		if ep.charged[id] {
			return nil, fmt.Errorf("client %d charged twice in epoch %d", id, ep.n)
		}
		ep.charged[id] = true
		return c, nil
	case RecordSeal:
		return nil, g.sealWith(rec.Payload)
	case RecordSealChunk:
		done, err := ep.chunks.add(rec.Payload)
		if err != nil || done == nil {
			return nil, err
		}
		return nil, g.sealWith(done)
	case RecordReset:
		if len(rec.Payload) != 0 {
			return nil, fmt.Errorf("reset of epoch %d carries a %d-byte payload", ep.n, len(rec.Payload))
		}
		g.ep = newBoardEpoch(ep.n + 1)
		return nil, nil
	case RecordSnapshot:
		if !ep.sealed {
			return nil, fmt.Errorf("snapshot of epoch %d, which is not sealed", ep.n)
		}
		n, digest, err := decodeSnapshot(rec.Payload)
		if err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
		if n != ep.n {
			return nil, fmt.Errorf("snapshot pins epoch %d, current epoch is %d", n, ep.n)
		}
		if !bytes.Equal(digest, ep.seal.digest(g.pub)) {
			return nil, fmt.Errorf("snapshot digest for epoch %d disagrees with its seal", ep.n)
		}
		g.ep = newBoardEpoch(ep.n + 1)
		return nil, nil
	default:
		return nil, fmt.Errorf("unknown kind %d", rec.Kind)
	}
}

func (g *boardGrammar) submission(payload []byte) (*boardClient, error) {
	sub, err := g.pub.DecodeClientSubmission(payload)
	if err != nil {
		return nil, fmt.Errorf("submission: %w", err)
	}
	// The ClientPublic bytes exactly as logged (the decode above already
	// validated the framing): seals are checked against these.
	r := wireReader{b: payload}
	r.version()
	raw := r.lpBytes()
	ep := g.ep
	id := sub.Public.ID
	if prev := ep.byID[id]; prev != nil {
		if prev.decided {
			return nil, fmt.Errorf("duplicate submission from decided client %d", id)
		}
		// An undecided earlier submission followed by a retry means the
		// earlier one was withdrawn live but its withdrawal record was lost
		// (withdrawals are best-effort: they compensate for a store that is
		// already failing). The live session could only have admitted the
		// retry if the original was gone, so the retry supersedes it.
		ep.drop(prev)
	}
	c := &boardClient{sub: sub, raw: raw}
	ep.byID[id] = c
	ep.order = append(ep.order, c)
	return c, nil
}

func (g *boardGrammar) verdict(payload []byte) (*boardClient, error) {
	id, reject, onBoard, err := decodeVerdict(payload)
	if err != nil {
		return nil, fmt.Errorf("verdict: %w", err)
	}
	ep := g.ep
	c := ep.byID[id]
	if c == nil {
		return nil, fmt.Errorf("verdict for unknown client %d", id)
	}
	if c.decided {
		// A session writes exactly one verdict per admitted submission; a
		// second one is an attempt to flip an already-public outcome.
		return nil, fmt.Errorf("second verdict for client %d", id)
	}
	if reject == nil && !onBoard {
		// Session.verify never accepts off-board: acceptance means every
		// check passed, and passing clients are posted.
		return nil, fmt.Errorf("client %d accepted but marked off-board — no session writes this", id)
	}
	if reject != nil && !onBoard && isBudgetRefusalReason(reject.Error()) {
		// A budget refusal happens instead of the admission charge.
		if ep.charged[id] {
			return nil, fmt.Errorf("client %d refused over budget after being charged this epoch", id)
		}
		c.overBudget = true
	}
	c.decided, c.reject, c.onBoard = true, reject, onBoard
	return c, nil
}

// sealWith lands the epoch's seal. The transcript is shallow-parsed here —
// the client section stays raw — so a malformed seal is refused at its own
// record by every reader.
func (g *boardGrammar) sealWith(b []byte) error {
	sp, err := g.pub.splitSealedTranscript(b)
	if err != nil {
		return fmt.Errorf("seal: %w", err)
	}
	g.ep.sealed, g.ep.seal = true, sp
	return nil
}
