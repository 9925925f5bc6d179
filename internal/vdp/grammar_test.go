package vdp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/group"
	"repro/internal/store"
)

// grammarBase is a valid board log the parity fuzzer mutates.
type grammarBase struct {
	recs   []*store.Record
	sealed []int // epochs the unmutated log seals
	// forged records a splice may insert: evidence no session writes, but
	// that passes every check except the grammar's.
	forged []*store.Record
}

// grammarBases builds the three logs the parity fuzzer starts from:
//
//	0: an eager single-epoch log, one seal record, with a verdict that
//	   contradicts client 0's valid proof to splice in;
//	1: a deferred-verification single-epoch log (no verdicts) whose seal is
//	   split into chunks;
//	2: a two-epoch budget log whose sealed epoch 1 refuses client 0 over
//	   budget, with a forged charge for that client to splice in.
func grammarBases(tb testing.TB) (*Public, []*grammarBase) {
	tb.Helper()
	pub, err := Setup(Config{Group: group.P256(), Provers: 2, Bins: 1, Coins: 4})
	if err != nil {
		tb.Fatal(err)
	}
	ctx := context.Background()
	sub := func(id int) *ClientSubmission {
		s, err := pub.NewClientSubmission(id, id%2, testSeed(byte(40+id)))
		if err != nil {
			tb.Fatal(err)
		}
		return s
	}
	epoch := func(sess *Session, ids ...int) {
		for _, id := range ids {
			if err := sess.Submit(ctx, sub(id)); err != nil && !errors.Is(err, ErrClientReject) {
				tb.Fatal(err)
			}
		}
		if _, err := sess.Finalize(ctx); err != nil {
			tb.Fatal(err)
		}
	}
	records := func(log *store.MemLog) []*store.Record {
		recs, err := log.Snapshot()
		if err != nil {
			tb.Fatal(err)
		}
		return recs
	}
	open := func(opts SessionOptions) (*Session, *store.MemLog) {
		log := store.NewMemLog()
		opts.Store, opts.Rand, opts.Parallelism = log, testSeed(79), 2
		sess, err := NewSession(pub, opts)
		if err != nil {
			tb.Fatal(err)
		}
		return sess, log
	}

	var bases []*grammarBase
	sess, log := open(SessionOptions{})
	epoch(sess, 0, 1, 2, 3)
	lie := &store.Record{Kind: RecordVerdict, Payload: encodeVerdict(0, fmt.Errorf("%w: forged", ErrClientReject), true)}
	bases = append(bases, &grammarBase{recs: records(log), sealed: []int{0}, forged: []*store.Record{lie}})

	old := sealChunkSize
	sealChunkSize = 512
	sess, log = open(SessionOptions{DeferVerification: true})
	epoch(sess, 0, 1, 2)
	sealChunkSize = old
	bases = append(bases, &grammarBase{recs: records(log), sealed: []int{0}})

	budget := &BudgetConfig{EpochCost: 1, Total: 1}
	sess, log = open(SessionOptions{Budget: budget})
	epoch(sess, 0)
	if err := sess.Reset(); err != nil {
		tb.Fatal(err)
	}
	head := sess.LedgerDigest()
	epoch(sess, 0, 1)
	forged := &store.Record{Kind: RecordBudgetCharge, Epoch: 1, Payload: encodeBudgetCharge(0, 1, 1, 2, head)}
	bases = append(bases, &grammarBase{recs: records(log), sealed: []int{0, 1}, forged: []*store.Record{forged}})
	return pub, bases
}

// mutateBoardLog applies a program of record-level mutations, four bytes
// each: drop, duplicate, swap, kind change, epoch bump, and splice of a
// forged record (or a duplicate, when the base has none).
func mutateBoardLog(base *grammarBase, prog []byte) []*store.Record {
	recs := copyRecords(base.recs)
	for len(prog) >= 4 && len(recs) > 0 {
		op, a, b, c := prog[0]%6, int(prog[1])%len(recs), int(prog[2])%(len(recs)+1), prog[3]
		prog = prog[4:]
		insert := func(rec *store.Record) {
			recs = append(recs[:b], append([]*store.Record{rec}, recs[b:]...)...)
		}
		switch op {
		case 0:
			recs = append(recs[:a], recs[a+1:]...)
		case 1:
			insert(copyRecords(recs[a : a+1])[0])
		case 2:
			recs[a], recs[b%len(recs)] = recs[b%len(recs)], recs[a]
		case 3:
			recs[a].Kind = 1 + c%9
		case 4:
			recs[a].Epoch += 1 + uint32(c%3)
		case 5:
			if len(base.forged) == 0 {
				insert(copyRecords(recs[a : a+1])[0])
			} else {
				insert(copyRecords(base.forged[a%len(base.forged) : a%len(base.forged)+1])[0])
			}
		}
	}
	return recs
}

var recordIndexRE = regexp.MustCompile(`record (\d+)`)

// recordIndex extracts the record index an error names (MaxInt when it
// names none — a refusal after the record loop).
func recordIndex(err error) int {
	m := recordIndexRE.FindStringSubmatch(err.Error())
	if m == nil {
		return math.MaxInt
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

// tailOnlyCheck reports whether a tail refusal came from the tail's own
// on-arrival verification — a verdict checked against the board proof, the
// seal cross-check, or the ledger replay — which the offline audit runs
// only after its record loop.
func tailOnlyCheck(err error) bool {
	for _, frag := range []string{"board proof", "seal position", "seal lists", "ledger chain", "uncharged"} {
		if strings.Contains(err.Error(), frag) {
			return true
		}
	}
	return false
}

// checkBoardParity runs recovery, the offline audit of every epoch the base
// sealed, and the live tail over one log, and holds them to the grammar:
// when the grammar refuses a record, recovery and the audit refuse at that
// record, and the tail refuses there too — or earlier, through its
// on-arrival verdict, seal or ledger verification. The audit and the tail agree on
// accept/refuse overall, except that the tail alone pins seal positions.
func checkBoardParity(t *testing.T, pub *Public, base *grammarBase, recs []*store.Record) {
	t.Helper()
	ctx := context.Background()
	memLog := func() *store.MemLog {
		log := store.NewMemLog()
		for _, rec := range copyRecords(recs) {
			if err := log.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		return log
	}

	gAt := math.MaxInt
	g := newBoardGrammar(pub, 0)
	for i, rec := range recs {
		if _, err := g.step(rec); err != nil {
			gAt = i
			break
		}
	}

	_, resumeErr := ResumeSession(ctx, pub, SessionOptions{Store: memLog(), Parallelism: 2})
	if (resumeErr != nil) != (gAt != math.MaxInt) {
		t.Fatalf("grammar refuses at %d, resume = %v", gAt, resumeErr)
	}
	if resumeErr != nil && recordIndex(resumeErr) != gAt {
		t.Fatalf("grammar refuses at record %d, resume at: %v", gAt, resumeErr)
	}

	// Each epoch's audit decodes only its own records, so the grammar's
	// refusal must surface from at least one of them at the same record.
	var auditErr error
	auditAtG := false
	for _, e := range base.sealed {
		if err := AuditLog(ctx, pub, memLog(), e, 2); err != nil {
			auditErr = err
			auditAtG = auditAtG || recordIndex(err) == gAt
		}
	}

	// Like the offline audit, the tail is not told the budget policy: both
	// infer it from the epoch's own charges and refusals.
	a := NewTailAuditor(pub, TailOptions{Workers: 2, Window: 2})
	defer a.Close()
	tailAt := math.MaxInt
	var tailErr error
	for i, rec := range recs {
		if err := a.Feed(rec, int64(i)); err != nil {
			tailAt, tailErr = i, err
			break
		}
	}
	certified := tailErr == nil
	for _, e := range base.sealed {
		if _, ok := a.VerifiedDigest(e); !ok {
			certified = false
		}
	}

	if gAt != math.MaxInt {
		if !auditAtG {
			t.Fatalf("grammar refuses at record %d, audit: %v", gAt, auditErr)
		}
		if tailAt != gAt && !(tailAt < gAt && tailOnlyCheck(tailErr)) {
			t.Fatalf("grammar refuses at record %d, tail at %d: %v", gAt, tailAt, tailErr)
		}
	}
	if (auditErr == nil) != certified {
		positional := auditErr == nil && tailErr != nil && strings.Contains(tailErr.Error(), "seal position")
		if !positional {
			t.Fatalf("audit = %v, tail certified=%v (%v)", auditErr, certified, tailErr)
		}
	}
}

// FuzzBoardGrammarParity mutates valid board logs record by record and
// requires recovery, offline audit and live tail to reach the grammar's
// verdict at the grammar's record. The seeds are the divergences the three
// readers had before they shared one grammar: a second verdict for one
// client (only the tail refused it), a record spliced between seal chunks
// (recovery accepted it), and a budget charge for a client refused over
// budget (recovery accepted it, the audit refused it only after its loop).
func FuzzBoardGrammarParity(f *testing.F) {
	pub, bases := grammarBases(f)
	f.Add(byte(0), []byte{1, 1, 2, 0})             // duplicate verdict 1 right behind itself
	f.Add(byte(1), []byte{1, 0, 4, 0})             // re-submit client 0 between seal chunks
	f.Add(byte(2), []byte{5, 0, 7, 0})             // forged charge after the budget refusal
	f.Add(byte(0), []byte{2, 0, 2, 0, 2, 1, 3, 0}) // reordered client blocks
	f.Add(byte(0), []byte{4, 3, 0, 0})             // epoch bump mid-epoch
	f.Add(byte(1), []byte{3, 2, 0, 5})             // kind change
	f.Add(byte(2), []byte{0, 1, 0, 0})             // dropped charge
	f.Add(byte(0), []byte{0, 1, 0, 0, 5, 0, 1, 0}) // verdict contradicting the proof
	f.Fuzz(func(t *testing.T, which byte, prog []byte) {
		if len(prog) > 16 {
			prog = prog[:16]
		}
		base := bases[int(which)%len(bases)]
		checkBoardParity(t, pub, base, mutateBoardLog(base, prog))
	})
}

// TestBoardGrammarDivergences pins the three former divergences, and that
// every base log is accepted unmutated.
func TestBoardGrammarDivergences(t *testing.T) {
	pub, bases := grammarBases(t)
	for i, base := range bases {
		checkBoardParity(t, pub, base, base.recs)
		if base.sealed[len(base.sealed)-1] != len(base.sealed)-1 {
			t.Fatalf("base %d seals epochs %v", i, base.sealed)
		}
	}
	// Base 1 must really split its seal, and base 2 must really refuse
	// client 0 — otherwise the seeds below exercise nothing.
	chunks := 0
	for _, rec := range bases[1].recs {
		if rec.Kind == RecordSealChunk {
			chunks++
		}
	}
	if chunks < 2 {
		t.Fatalf("base 1 seal used %d chunks", chunks)
	}
	if rec := bases[2].recs[6]; rec.Kind != RecordVerdict {
		t.Fatalf("base 2 record 6 has kind %d, want the budget refusal", rec.Kind)
	} else if _, reject, _, _ := decodeVerdict(rec.Payload); reject == nil || !isBudgetRefusalReason(reject.Error()) {
		t.Fatalf("base 2 record 6 is not a budget refusal: %v", reject)
	}

	cases := []struct {
		name  string
		which int
		prog  []byte
		at    int
		frag  string
	}{
		{"second-verdict", 0, []byte{1, 1, 2, 0}, 2, "second verdict for client 0"},
		{"spliced-seal-chunk", 1, []byte{1, 0, 4, 0}, 5, "out of sequence"},
		{"charge-after-budget-refusal", 2, []byte{5, 0, 7, 0}, 7, "refused over budget"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs := mutateBoardLog(bases[tc.which], tc.prog)
			checkBoardParity(t, pub, bases[tc.which], recs)
			_, err := ResumeSession(context.Background(), pub, SessionOptions{Store: func() *store.MemLog {
				log := store.NewMemLog()
				for _, rec := range recs {
					if err := log.Append(rec); err != nil {
						t.Fatal(err)
					}
				}
				return log
			}()})
			if err == nil || recordIndex(err) != tc.at || !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("resume = %v, want a refusal at record %d mentioning %q", err, tc.at, tc.frag)
			}
		})
	}
}
