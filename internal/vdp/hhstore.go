package vdp

import (
	"context"
	"fmt"

	"repro/internal/sketch"
	"repro/internal/store"
)

// Durable sketch sessions: recovery, offline audit, and live tailing over a
// store.SegmentedLog with one segment per count-min row. All three run on
// the multi-segment core the sharded session uses (multiseg.go) — one
// lifecycle, one merged-seal manifest, every segment read through the one
// board-log grammar. A sketch supplies only what differs from sharding: its
// roster rule (row 0 gates admission, so no later row may seat a client row
// 0 did not — where a shard instead pins each client with ShardOf), the
// budget ledger on row 0 only, and its own Submit fan-out and result
// assembly (hh.go). The offline audit and the live tail both enforce the
// roster rule over each epoch's sealed rosters.

// ResumeSketchSession reconstructs a sketch session from its segmented
// board log after a restart. Every row's segment is replayed and resumed
// exactly as ResumeSession would — including the row-0 budget ledger, whose
// chain is re-verified and whose interrupted charges and refusals are
// converged — and the rows are then reconciled: laggards from an
// interrupted Reset are rolled forward, a fully-sealed epoch missing its
// merged-seal manifest record is healed, and a manifest record disagreeing
// with the recomputed digest refuses to resume. opts.Rand must carry the
// original root seed, exactly as with ResumeShardedSession.
func ResumeSketchSession(ctx context.Context, pub *Public, layout sketch.Layout, opts SessionOptions) (*SketchSession, error) {
	if err := validateSketchOptions(pub, layout, opts); err != nil {
		return nil, err
	}
	if opts.Segmented == nil {
		return nil, fmt.Errorf("%w: ResumeSketchSession needs SessionOptions.Segmented", ErrBadConfig)
	}
	c, err := openSegments(ctx, pub, opts, sketchKind, layout.Rows, true)
	if err != nil {
		return nil, err
	}
	return &SketchSession{c, layout}, nil
}

// AuditSketchLog audits a sketch epoch offline, from the segmented board
// log alone: each row's segment is audited exactly as AuditLog audits a
// single board log (sealed transcript re-verified, arrival records
// cross-checked, budget-charge chain replayed), the row rosters must obey
// the admission gate (every client row r > 0 seats also sits on row 0 —
// row 0 admits first, so a foreign client on a later row is a forged
// roster), and the merged digest recomputed from the row seals must equal
// the manifest's merged-seal record. epoch < 0 selects the latest merged
// epoch; workers follows the AuditParallel convention.
func AuditSketchLog(ctx context.Context, pub *Public, layout sketch.Layout, seg *store.SegmentedLog, epoch, workers int) error {
	if err := checkSketchLayout(pub, layout, seg); err != nil {
		return err
	}
	return auditSegmentedEpoch(ctx, pub, seg, epoch, workers, sketchKind)
}

// TailSketchLog opens a live audit tail over a sketch session's segmented
// board log: one TailAuditor per row (unpinned — sketch clients legally
// appear on every row) plus the manifest's merged-seal stream, drained
// together by Poll. opts.Budget applies to row 0's auditor only; the other
// rows carry no charges, and any charge record appearing there fails their
// chain replay at the unknown-client check.
func TailSketchLog(pub *Public, layout sketch.Layout, seg *store.SegmentedLog, opts TailOptions) (*SegmentedTail, error) {
	if err := checkSketchLayout(pub, layout, seg); err != nil {
		return nil, err
	}
	return newSegmentedTail(pub, seg, opts, sketchKind)
}
