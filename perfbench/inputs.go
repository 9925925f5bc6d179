package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
	"repro/internal/vdp"
)

// Every byte the program under test receives is derived from the workload
// seed: client IDs, choices, which batch member is forged, and each
// client's proof randomness (a per-client seeded reader handed to
// NewClientSubmission). The same seed therefore gives byte-identical
// submissions, whichever goroutine happens to generate them.

// mix is splitmix64 over a seed, a label and an index.
func mix(seed uint64, label string, i uint64) uint64 {
	z := seed ^ i*0x9e3779b97f4a7c15
	for _, c := range []byte(label) {
		z = (z ^ uint64(c)) * 0x100000001b3
	}
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// seededReader is a SHA-256 counter-mode stream keyed by (seed, label, i).
type seededReader struct {
	key [32]byte
	ctr uint64
	buf []byte
}

func newSeededReader(seed uint64, label string, i uint64) *seededReader {
	h := sha256.New()
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], seed)
	binary.BigEndian.PutUint64(b[8:], i)
	h.Write(b[:])
	h.Write([]byte(label))
	r := &seededReader{}
	copy(r.key[:], h.Sum(nil))
	return r
}

func (r *seededReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if len(r.buf) == 0 {
			var blk [40]byte
			copy(blk[:32], r.key[:])
			binary.BigEndian.PutUint64(blk[32:], r.ctr)
			r.ctr++
			sum := sha256.Sum256(blk[:])
			r.buf = sum[:]
		}
		c := copy(p[n:], r.buf)
		r.buf = r.buf[c:]
		n += c
	}
	return n, nil
}

// rootSeed is the 32-byte cluster root seed every node forks its shard
// substream from (and the single-process reference session too).
func rootSeed(seed uint64) []byte {
	b := make([]byte, 32)
	newSeededReader(seed, "cluster-root", 0).Read(b)
	return b
}

// idBase places a run's client IDs in a seed-chosen range, so different
// seeds exercise different shard assignments.
func idBase(seed uint64) int { return 1 + int(mix(seed, "id-base", 0)%1000)*1_000_000 }

// frame is one pre-encoded submit-batch client frame. Sender carries the
// first client ID, which the router forwards to the nodes and the traced
// run uses as the request ID.
type frame struct {
	payload []byte
	ids     []int
	forged  map[int]bool
}

func (f *frame) wire() *transport.Frame {
	return &transport.Frame{Kind: "submit-batch", Sender: f.ids[0], Payload: f.payload}
}

// population is one generated input set.
type population struct {
	subs    []*vdp.ClientSubmission // in ID order
	byID    map[int]*vdp.ClientSubmission
	frames  []*frame
	forged  map[int]bool // forged client IDs
	proveMS []float64    // per-input NewClientSubmission time
	digest  [32]byte     // over every encoded frame: the determinism check
}

// genPopulation proves n clients with IDs base..base+n-1 on at most nproc
// goroutines, forges one member of every forgeEvery'th batch frame (0 = no
// forgeries) by bumping its bit proof's Z0 response — Fiat–Shamir still
// recomputes, the folded Σ-OR check does not — and encodes them in
// submit-batch frames of batch members.
func genPopulation(pub *vdp.Public, seed uint64, base, n, batch, forgeEvery int) (*population, error) {
	p := &population{
		subs:    make([]*vdp.ClientSubmission, n),
		byID:    make(map[int]*vdp.ClientSubmission, n),
		forged:  map[int]bool{},
		proveMS: make([]float64, n),
	}
	var next atomic.Int64
	errs := make([]error, runtime.NumCPU())
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				id := base + i
				choice := int(mix(seed, "choice", uint64(id)) & 1)
				t0 := time.Now()
				sub, err := pub.NewClientSubmission(id, choice, newSeededReader(seed, "client", uint64(id)))
				p.proveMS[i] = msSince(t0)
				if err != nil {
					errs[w] = fmt.Errorf("proving client %d: %w", id, err)
					return
				}
				p.subs[i] = sub
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, sub := range p.subs {
		p.byID[sub.Public.ID] = sub
	}

	h := sha256.New()
	for off := 0; off < n; off += batch {
		end := min(off+batch, n)
		f := &frame{forged: map[int]bool{}}
		fi := off / batch
		if forgeEvery > 0 && fi%forgeEvery == forgeEvery-1 {
			j := off + int(mix(seed, "forge", uint64(fi))%uint64(end-off))
			bp := p.subs[j].Public.BitProof
			bp.Z0 = bp.Z0.Add(pub.Field().One())
			f.forged[p.subs[j].Public.ID] = true
			p.forged[p.subs[j].Public.ID] = true
		}
		for _, sub := range p.subs[off:end] {
			f.ids = append(f.ids, sub.Public.ID)
		}
		f.payload = pub.EncodeSubmissionBatch(p.subs[off:end])
		h.Write(f.payload)
		p.frames = append(p.frames, f)
	}
	copy(p.digest[:], h.Sum(nil))
	return p, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
