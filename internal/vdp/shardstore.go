package vdp

import (
	"context"
	"crypto/sha256"
	"fmt"

	"repro/internal/store"
)

// Durable sharded bulletin board: the ShardedSession's integration with
// store.SegmentedLog.
//
// Each shard writes its ordinary single-session record stream
// (submission/verdict/seal/reset — see store.go) to its own segment, so one
// shard's fsyncs never serialize another shard's Submits. The manifest binds
// the segments together: at creation the store records the fixed shard
// count, and at every Finalize the session appends a merged-seal record
// holding MergedTranscriptDigest over the K segment seals. An epoch is a
// *merged* epoch — one auditable unit — exactly when that record exists and
// matches the digests recomputed from the segments.

// RecordMergedSeal is the manifest record kind a ShardedSession appends at
// Finalize: payload = shard count + MergedTranscriptDigest of the epoch's
// per-shard transcripts, in shard order. It extends the record-kind
// namespace of store.go; segment logs never carry it.
const RecordMergedSeal uint8 = 7

// encodeMergedSeal serializes a merged-seal manifest record body.
func encodeMergedSeal(shards int, digest []byte) []byte {
	var w wireWriter
	w.version()
	w.u32(uint32(shards))
	w.lpBytes(digest)
	return w.b
}

// decodeMergedSeal parses a merged-seal manifest record body.
func decodeMergedSeal(b []byte) (shards int, digest []byte, err error) {
	r := wireReader{b: b}
	r.version()
	shards = int(r.u32())
	digest = r.lpBytes()
	if err := r.finish(); err != nil {
		return 0, nil, err
	}
	if len(digest) != sha256.Size {
		return 0, nil, fmt.Errorf("vdp: merged seal carries a %d-byte digest, want %d", len(digest), sha256.Size)
	}
	return shards, digest, nil
}

// appendMergedSeal records a finalized merged epoch in the manifest.
func appendMergedSeal(seg *store.SegmentedLog, epoch, shards int, digest []byte) error {
	err := seg.Manifest().Append(&store.Record{Kind: RecordMergedSeal, Epoch: uint32(epoch), Payload: encodeMergedSeal(shards, digest)})
	if err != nil {
		return fmt.Errorf("vdp: manifest append: %w", err)
	}
	return nil
}

// applyMergedSeal runs one manifest record through the manifest grammar:
// the store's own bookkeeping is skipped, every merged seal must carry the
// expected segment count, no epoch may be sealed twice, and a kind no front
// door writes is refused outright.
func applyMergedSeal(seals map[int][]byte, rec *store.Record, shards int) error {
	if rec.Kind >= store.KindSegmentedInit {
		return nil // store-reserved bookkeeping
	}
	if rec.Kind != RecordMergedSeal {
		return fmt.Errorf("unknown kind %d", rec.Kind)
	}
	n, digest, err := decodeMergedSeal(rec.Payload)
	if err != nil {
		return err
	}
	if n != shards {
		return fmt.Errorf("claims %d shards, want %d", n, shards)
	}
	epoch := int(rec.Epoch)
	if _, dup := seals[epoch]; dup {
		return fmt.Errorf("seals epoch %d twice", epoch)
	}
	seals[epoch] = digest
	return nil
}

// readMergedSeals replays the manifest into epoch -> merged digest.
func readMergedSeals(seg *store.SegmentedLog) (map[int][]byte, error) {
	out := make(map[int][]byte)
	i := -1
	err := seg.Manifest().Replay(func(rec *store.Record) error {
		i++
		if err := applyMergedSeal(out, rec, seg.Shards()); err != nil {
			return fmt.Errorf("vdp: manifest record %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ResumeShardedSession reconstructs a sharded session from its segmented
// board log after a restart. Every shard's segment is replayed and resumed
// exactly as ResumeSession would (same roster, same board order, lost
// verdicts re-verified), and the shards are then reconciled into one
// session: laggards of a crash mid-Reset are rolled forward, a crash
// mid-Finalize resumes open (its Finalize reuses the sealed shards'
// transcripts, so the merged digest comes out identical to the
// uninterrupted run's given the same seed), a fully sealed epoch missing its
// manifest merged-seal record is healed, and a manifest record that
// disagrees with the recomputed digest is tampering and refuses to resume.
//
// opts.Segmented must be the replayed segmented log; it receives all further
// records. opts.Rand must carry the original root seed for deterministic
// reproduction, exactly as with ResumeSession.
func ResumeShardedSession(ctx context.Context, pub *Public, opts SessionOptions) (*ShardedSession, error) {
	if opts.Segmented == nil {
		return nil, fmt.Errorf("%w: ResumeShardedSession needs SessionOptions.Segmented", ErrBadConfig)
	}
	if opts.Store != nil {
		return nil, fmt.Errorf("%w: a sharded session stores its board in SessionOptions.Segmented, not Store", ErrBadConfig)
	}
	shards, err := resolveShardCount(opts)
	if err != nil {
		return nil, err
	}
	c, err := openSegments(ctx, pub, opts, shardKind, shards, true)
	if err != nil {
		return nil, err
	}
	return &ShardedSession{c}, nil
}

// AuditSegmentedLog audits a merged (sharded) epoch offline, from the
// segmented board log alone: each shard's segment is audited exactly as
// AuditLog audits a single board log — sealed transcript fully re-verified
// and cross-checked against the segment's own per-arrival records — then the
// shard map is checked (every client on the shard ShardOf assigns it, no
// client on two shards) and the merged digest recomputed from the K segment
// seals must equal the manifest's merged-seal record. epoch < 0 selects the
// latest merged-sealed epoch. workers follows the AuditParallel convention.
func AuditSegmentedLog(ctx context.Context, pub *Public, seg *store.SegmentedLog, epoch, workers int) error {
	return auditSegmentedEpoch(ctx, pub, seg, epoch, workers, shardKind)
}
