// Command perfbench is the repository's end-to-end benchmark. It boots the
// deployed topology in one process over loopback TCP — a router in front
// of two shards, each a primary + standby pair with durable FileLog boards
// and merged-seal sidecars, mirror-before-ack, and the privacy-budget
// ledger on — drives it from one load generator over at most nproc client
// connections, checks every output, and prints one JSON result line.
//
//	perfbench --workload admit-batch|release-audit --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the run is split into an untraced and a traced half, and the result
// carries the per-layer metrics measured from outside the program.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/vdp"
)

const (
	epsilon   = 1.0
	delta     = 1e-6
	wantCoins = 1451 // nb calibrated from (ε, δ) by Lemma 2.1
	setupReps = 5    // set-ups per run; setup_s is their median
)

// budget: one ε per epoch out of a lifetime 64 ε, so no honest client
// runs out within a run.
var budget = &vdp.BudgetConfig{EpochCost: 1_000_000, Total: 64_000_000}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "admit-batch or release-audit")
	seed := flag.Uint64("seed", 1, "workload seed: every input is derived from it")
	seconds := flag.Float64("seconds", 10, "measurement time in seconds")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	dir := flag.String("dir", filepath.Join(".bench_build", "perfbench", "run"), "scratch directory for board logs and spans")
	flag.Parse()
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	switch *workload {
	case "admit-batch", "release-audit":
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q\n", *workload)
		return 2
	}
	res, err := measure(*workload, *seed, *seconds, *traced == 1, *dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// inputs is what one set-up generates.
type inputs struct {
	pops []*population // admit-batch: one; release-audit: one per round
	tp   *topology     // the first cluster, booted
}

// setup generates the workload's inputs and boots the first cluster.
func (b *bench) setup(workload string, seconds float64, tr *tracer) (*inputs, error) {
	pub, err := vdp.Setup(vdp.Config{Provers: 1, Bins: 1, Epsilon: epsilon, Delta: delta})
	if err != nil {
		return nil, err
	}
	if pub.Coins() != wantCoins {
		return nil, fmt.Errorf("(ε, δ) = (%g, %g) calibrated nb = %d, want %d", epsilon, delta, pub.Coins(), wantCoins)
	}
	b.pub = pub
	in := &inputs{}
	base := idBase(b.seed)
	switch workload {
	case "admit-batch":
		pop, err := genPopulation(pub, b.seed, base, poolFrames*batchSize, batchSize, forgeEvery)
		if err != nil {
			return nil, err
		}
		in.pops = append(in.pops, pop)
	case "release-audit":
		for it := 0; it < releaseRounds(seconds); it++ {
			pop, err := genPopulation(pub, b.seed, base+it*fillClients, fillClients, batchSize, 0)
			if err != nil {
				return nil, err
			}
			in.pops = append(in.pops, pop)
		}
	}
	in.tp, err = b.boot(tr)
	return in, err
}

// releaseRounds is release-audit's round count: a round, the fill and an
// epoch close with its auditReps audits, takes about 6 s on a 2-vCPU host.
func releaseRounds(seconds float64) int { return max(1, int(math.Round(seconds/6))) }

func measure(workload string, seed uint64, seconds float64, traced bool, dir string) (*result, error) {
	b := &bench{ctx: context.Background(), seed: seed, root: rootSeed(seed), budget: budget,
		dir: filepath.Join(dir, "clusters")}
	defer os.RemoveAll(b.dir)

	passSeconds := seconds
	if traced {
		passSeconds = seconds / 2
	}
	var setups []float64
	var in *inputs
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		next, err := b.setup(workload, passSeconds, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if in != nil {
			in.tp.close()
			for k := range next.pops {
				if next.pops[k].digest != in.pops[k].digest {
					b.fail("set-up %d generated different inputs from the same seed", r)
				}
			}
		}
		in = next
	}

	var prove []float64
	for _, pop := range in.pops {
		prove = append(prove, pop.proveMS...)
	}
	run := func(p *pass, tp *topology) error {
		switch workload {
		case "admit-batch":
			return b.runAdmitBatch(p, in.pops[0], tp, passSeconds)
		default:
			return b.runReleaseAudit(p, in.pops, tp)
		}
	}

	plain := newPass(nil)
	if err := run(plain, in.tp); err != nil {
		return nil, err
	}
	e2e := endToEnd(plain, setups)
	res := &result{Metrics: e2e}
	if traced {
		tr := newTracer()
		p := newPass(tr)
		tp, err := b.boot(tr)
		if err != nil {
			return nil, err
		}
		if err := run(p, tp); err != nil {
			return nil, err
		}
		res.Metrics = perLayer(workload, p, e2e, endToEnd(p, setups), prove)
		for _, g := range tr.checkSerial() {
			b.fail("%s", g)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		spans := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
		if err := tr.writeSpans(spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), spans)
	}

	res.Correct = len(b.gates) == 0
	res.Attempted, res.Failed = b.attempted, b.failed
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			b.gates = append(b.gates, "metric "+name+" was not measured")
			res.Metrics[name] = metric{Value: -1, Unit: m.Unit}
			res.Correct = false
		}
	}
	for _, g := range b.gates {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", g)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: GOMAXPROCS=%d, %d client connections, %d frames timed in %d rounds, %d epoch closes, %d audits, %d set-ups\n",
		workload, seed, runtime.GOMAXPROCS(0), clientConns(), len(plain.lat), len(plain.rounds), len(plain.release), len(plain.audit), len(setups))
	return res, nil
}

// endToEnd computes the user-visible metrics of one pass: throughput per
// round, then the median across rounds; the verdict median per segment,
// then the median across segments.
func endToEnd(p *pass, setups []float64) map[string]metric {
	var sps []float64
	for _, r := range p.rounds {
		sps = append(sps, float64(r.accepted)/r.dur.Seconds())
	}
	return map[string]metric{
		"setup_s":        {median(setups), "s"},
		"admit_sps":      {median(sps), "1/s"},
		"verdict_p50_ms": {p.verdictP50(), "ms"},
		"release_s":      {median(p.release), "s"},
		"tail_cert_s":    {median(p.tailCert), "s"},
		"audit_s":        {median(p.audit), "s"},
	}
}

// subtracted names, per layer, the child spans a span's self time
// excludes. Each layer's self-time metric uses it, and so does the
// blocking-path attribution, so the two add up the same way.
var subtracted = map[string][]string{
	spClient:     {spRouter},
	spRouter:     {spRouterNode},
	spRouterNode: {spNode},
	spNode:       {spDecode, spAdmit, spRepl},
	spAdmit:      {spRepl},
	spRepl:       {spFile},
	spFinalize:   {spRouterNode},
	spCertify:    {spFollower},
}

// self is span i's duration minus what its subtracted children cover, in
// ns.
func (t *tracer) self(i int, kids []int) int64 {
	var sub []int
	for _, j := range kids {
		if slices.Contains(subtracted[t.spans[i].Name], t.spans[j].Name) {
			sub = append(sub, j)
		}
	}
	return t.spans[i].dur() - t.covered(i, sub)
}

// path sums the layer self times on span i's blocking path: its own self
// time plus the path of every subtracted child. Of the router's per-shard
// round trips, which run in parallel, it follows only the one that ended
// last: the one the router waited for.
func (t *tracer) path(i int, kids [][]int) int64 {
	total := t.self(i, kids[i])
	crit := -1
	for _, j := range kids[i] {
		c := &t.spans[j]
		if !slices.Contains(subtracted[t.spans[i].Name], c.Name) {
			continue
		}
		if c.Name == spRouterNode {
			if crit < 0 || c.End > t.spans[crit].End {
				crit = j
			}
			continue
		}
		total += t.path(j, kids)
	}
	if crit >= 0 {
		total += t.path(crit, kids)
	}
	return total
}

// perLayer computes the per-layer metrics of the traced pass p; plain and
// traced are the untraced and traced halves' end-to-end numbers.
func perLayer(workload string, p *pass, plain, traced map[string]metric, prove []float64) map[string]metric {
	t := p.tr
	kids := t.children()
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	var clientWire, admitSelf, decode, dispatchSelf, syncs, appends, mirrorWait, routerSelf, rnWait, rnWire, sealSelf, finSelf, catchup, certSelf, auditVerify []float64
	var latency, attributed int64
	for i := range t.spans {
		s := &t.spans[i]
		self := func() float64 { return ms(t.self(i, kids[i])) }
		switch s.Name {
		case spClient:
			clientWire = append(clientWire, self())
			latency += s.dur()
			attributed += t.path(i, kids)
		case spAdmit:
			admitSelf = append(admitSelf, self())
			// Mirror wait per admission: its ReplicatedLog calls, which
			// ship to the standby, minus their own FileLog time.
			wait := 0.0
			for _, j := range kids[i] {
				if t.spans[j].Name == spRepl {
					wait += ms(t.self(j, kids[j]))
				}
			}
			mirrorWait = append(mirrorWait, wait)
		case spDecode:
			decode = append(decode, ms(s.dur()))
		case spFile:
			if s.Kind == "sync" {
				syncs = append(syncs, ms(s.dur()))
			} else {
				appends = append(appends, ms(s.dur()))
			}
		case spRouter:
			routerSelf = append(routerSelf, self())
		case spRouterNode:
			if s.First != 0 {
				rnWait = append(rnWait, ms(s.dur()))
				rnWire = append(rnWire, self())
			}
		case spNode:
			switch s.Kind {
			case "submit-batch":
				dispatchSelf = append(dispatchSelf, self())
			case cluster.KindSeal:
				sealSelf = append(sealSelf, self())
			}
		case spFinalize:
			finSelf = append(finSelf, self())
		case spCatchup:
			catchup = append(catchup, ms(s.dur()))
		case spCertify:
			certSelf = append(certSelf, self())
		case spAudit:
			var fetch []int
			for _, j := range kids[i] {
				if c := &t.spans[j]; c.Name == spRouterNode && c.Kind == cluster.KindLog {
					fetch = append(fetch, j)
				}
			}
			auditVerify = append(auditVerify, ms(s.dur()-t.covered(i, fetch)))
		}
	}
	perSub := func(counter string) float64 { return float64(p.adm[counter]) / float64(p.subs) }
	// The overhead compares each workload's headline metric across the
	// untraced and traced halves (positive = tracing made it worse).
	var overhead float64
	switch workload {
	case "admit-batch":
		overhead = plain["admit_sps"].Value/traced["admit_sps"].Value - 1
	default:
		overhead = traced["release_s"].Value/plain["release_s"].Value - 1
	}
	return map[string]metric{
		"transport.client_router.wire_ms":      {median(clientWire), "ms"},
		"cluster.router.self_ms":               {median(routerSelf), "ms"},
		"transport.router_node.wire_ms":        {median(rnWire), "ms"},
		"node.dispatch.self_ms":                {median(dispatchSelf), "ms"},
		"vdp.admit.self_ms":                    {median(admitSelf), "ms"},
		"vdp.admit.reject_frac":                {float64(p.adm["vdp.admit.rejected"]) / float64(p.adm["vdp.admit.members"]), "frac"},
		"vdp.decode_ms":                        {median(decode), "ms"},
		"store.sync_ms":                        {median(syncs), "ms"},
		"store.append_ms":                      {median(appends), "ms"},
		"store.syncs_per_sub":                  {perSub("store.syncs"), "count"},
		"store.appends_per_sub":                {perSub("store.appends"), "count"},
		"store.write_bytes_per_sub":            {perSub("store.write_bytes"), "bytes"},
		"cluster.mirror.wait_ms":               {median(mirrorWait), "ms"},
		"transport.router_node.frames_per_sub": {perSub("transport.router_node.frames"), "count"},
		"transport.router_node.bytes_per_sub":  {perSub("transport.router_node.bytes"), "bytes"},
		"transport.mirror.frames_per_sub":      {perSub("transport.mirror.frames"), "count"},
		"transport.mirror.bytes_per_sub":       {perSub("transport.mirror.bytes"), "bytes"},
		"transport.router_node.wait_ms":        {median(rnWait), "ms"},
		"vdp.seal.self_ms":                     {median(sealSelf), "ms"},
		"cluster.finalize_merge.self_ms":       {median(finSelf), "ms"},
		"vdp.tail.catchup_ms":                  {median(catchup), "ms"},
		"vdp.tail.seal_verify_ms":              {median(certSelf), "ms"},
		"transport.log_fetch.bytes":            {float64(t.counts["transport.log_fetch.bytes"]) / float64(p.fetchOps), "bytes"},
		"store.fetch_useful_frac":              {float64(p.fetchNew) / float64(p.fetchShipped), "frac"},
		"vdp.audit.verify_ms":                  {median(auditVerify), "ms"},
		"bench.client_prove_ms":                {median(prove), "ms"},
		"trace.overhead_frac":                  {overhead, "frac"},
		"trace.unattributed_frac":              {1 - float64(attributed)/float64(latency), "frac"},
	}
}
