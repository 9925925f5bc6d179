package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/vdp"
)

// shards is the deployed shard count: each shard is a primary + standby
// replica pair behind one router.
const shards = 2

// clientConns is how many connections the load generator opens to the
// router: nproc, at most 2.
func clientConns() int { return min(2, runtime.NumCPU()) }

var retry = transport.RetryPolicy{Retries: 3, Backoff: 10 * time.Millisecond, MaxBackoff: 100 * time.Millisecond}

// topology is the deployed cluster, booted in one process over loopback
// TCP: a router in front of two shards, each a primary + standby pair with
// durable FileLog boards and merged-seal sidecars on both sides, the
// primary mirroring every record to its standby before acknowledging, and
// the privacy-budget ledger on.
type topology struct {
	router  *cluster.Router
	nodes   []*cluster.Node
	sbys    []*cluster.Standby
	boards  []store.BoardLog // primary board logs (ReplicatedLog)
	specs   [][]string       // per shard: primary, standby address
	clients []*transport.Client
	closers []func()
}

func (tp *topology) close() {
	for i := len(tp.closers) - 1; i >= 0; i-- {
		tp.closers[i]()
	}
	tp.closers = nil
}

// openLogs opens a replica's durable board log and merged-seal sidecar
// (default per-append fsync; the session group-commits through
// AppendNoSync + Sync). Both are synced once before use: a deployed node
// creates its logs once in its lifetime, so the first fsync of a new file
// (which commits its creation too) belongs to boot, not to the first
// timed submission of every fresh cluster.
func openLogs(dir string) (board, seal *store.FileLog, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	if board, err = store.OpenFileLog(filepath.Join(dir, "board.log")); err != nil {
		return nil, nil, err
	}
	if seal, err = store.OpenFileLog(filepath.Join(dir, "merged.log")); err != nil {
		board.Close()
		return nil, nil, err
	}
	for _, l := range []*store.FileLog{board, seal} {
		if err := l.Sync(); err != nil {
			board.Close()
			seal.Close()
			return nil, nil, err
		}
	}
	return board, seal, nil
}

func bootTopology(ctx context.Context, pub *vdp.Public, dir string, root []byte, budget *vdp.BudgetConfig, tr *tracer) (*topology, error) {
	tp := &topology{}
	ok := false
	defer func() {
		if !ok {
			tp.close()
		}
	}()
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	opts := vdp.SessionOptions{Rand: bytes.NewReader(root), Budget: budget}
	backends := make([]string, shards)
	for i := 0; i < shards; i++ {
		sbBoard, sbSeal, err := openLogs(filepath.Join(dir, fmt.Sprintf("shard%d-standby", i)))
		if err != nil {
			return nil, err
		}
		tp.closers = append(tp.closers, func() { sbBoard.Close(); sbSeal.Close() })
		sbOpts := opts
		sbOpts.Rand = bytes.NewReader(root)
		sb, err := cluster.NewStandby(ctx, pub, cluster.StandbyConfig{
			Shard: i, Shards: shards,
			Board:       tr.wrapLog(sbBoard, spFile, "standby", i),
			Seal:        tr.wrapLog(sbSeal, spFile, "standby", i),
			SessionOpts: sbOpts,
		})
		if err != nil {
			return nil, err
		}
		sbSrv, err := transport.Listen("127.0.0.1:0", standbyDispatch(ctx, pub, sb, tr, i))
		if err != nil {
			return nil, err
		}
		tp.closers = append(tp.closers, func() { sbSrv.Close() })

		prBoard, prSeal, err := openLogs(filepath.Join(dir, fmt.Sprintf("shard%d-primary", i)))
		if err != nil {
			return nil, err
		}
		tp.closers = append(tp.closers, func() { prBoard.Close(); prSeal.Close() })
		repl := cluster.NewReplicator(sbSrv.Addr(), i, shards, transport.ClientOptions{
			Timeout: 10 * time.Second, Retry: retry, Dial: tr.dialer(hopMirror),
		})
		tp.closers = append(tp.closers, repl.Close)
		rb, err := store.NewReplicatedLog(tr.wrapLog(prBoard, spFile, "primary", i), repl.Mirror(cluster.ReplLogBoard))
		if err != nil {
			return nil, err
		}
		rs, err := store.NewReplicatedLog(tr.wrapLog(prSeal, spFile, "primary", i), repl.Mirror(cluster.ReplLogSeal))
		if err != nil {
			return nil, err
		}
		board, seal := tr.wrapLog(rb, spRepl, "primary", i), tr.wrapLog(rs, spRepl, "primary", i)
		prOpts := opts
		prOpts.Rand = bytes.NewReader(root)
		prOpts.Store = board
		sess, err := vdp.NewShardSession(pub, prOpts, i, shards)
		if err != nil {
			return nil, err
		}
		node, err := cluster.NewNode(ctx, pub, sess, cluster.NodeConfig{
			Shard: i, Shards: shards, BoardLog: board, SealLog: seal,
		})
		if err != nil {
			return nil, err
		}
		prSrv, err := transport.Listen("127.0.0.1:0", nodeDispatch(ctx, pub, node, tr, i))
		if err != nil {
			return nil, err
		}
		tp.closers = append(tp.closers, func() { prSrv.Close() })

		tp.nodes = append(tp.nodes, node)
		tp.sbys = append(tp.sbys, sb)
		tp.boards = append(tp.boards, board)
		tp.specs = append(tp.specs, []string{prSrv.Addr(), sbSrv.Addr()})
		backends[i] = prSrv.Addr() + "~" + sbSrv.Addr()
		if tr != nil {
			tr.mu.Lock()
			tr.addrs[prSrv.Addr()], tr.addrs[sbSrv.Addr()] = i, i
			tr.mu.Unlock()
		}
	}

	router, err := cluster.New(cluster.Config{
		Pub: pub, Backends: backends, Timeout: 30 * time.Second, Retry: retry, Dial: tr.dialer(hopRouterNode),
	})
	if err != nil {
		return nil, err
	}
	tp.router = router
	tp.closers = append(tp.closers, router.Close)
	// As vdprouter does at start-up: verify the topology, which also opens
	// the router's backend connections before the first timed frame.
	if _, err := router.CheckTopology(); err != nil {
		return nil, err
	}
	rsrv, err := transport.Listen("127.0.0.1:0", tr.wrapRouter(router.Handler()))
	if err != nil {
		return nil, err
	}
	tp.closers = append(tp.closers, func() { rsrv.Close() })
	for c := 0; c < clientConns(); c++ {
		cli, err := transport.DialClient(rsrv.Addr(), transport.ClientOptions{Timeout: 30 * time.Second})
		if err != nil {
			return nil, err
		}
		tp.clients = append(tp.clients, cli)
		tp.closers = append(tp.closers, func() { cli.Close() })
	}
	ok = true
	return tp, nil
}

// follower opens a live audit tail over the cluster's replica sets on its
// own connections, returning it with a function that closes them.
func (tp *topology) follower(pub *vdp.Public, budget *vdp.BudgetConfig, tr *tracer) (*cluster.TailFollower, func(), error) {
	var bs []*cluster.Backend
	closeAll := func() {
		for _, b := range bs {
			b.Close()
		}
	}
	for i, addrs := range tp.specs {
		bs = append(bs, cluster.NewBackend(addrs, i, transport.ClientOptions{
			Timeout: 30 * time.Second, Retry: retry, Dial: tr.dialer(hopFollower),
		}))
	}
	f, err := cluster.NewTailFollower(pub, bs, vdp.TailOptions{Budget: budget})
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	return f, closeAll, nil
}

// nodeDispatch is the frame dispatch cmd/vdpserver runs in node mode — the
// cluster RPC plus the two admission kinds — with the traced run's spans
// around the node-side decode and Node.SubmitBatch.
func nodeDispatch(ctx context.Context, pub *vdp.Public, node *cluster.Node, tr *tracer, shard int) transport.Handler {
	return func(f *transport.Frame) ([]*transport.Frame, error) {
		sp := tr.dispatch(spNode, shard, f)
		defer tr.end(sp)
		if cluster.IsRPC(f.Kind) {
			return node.Handle(f), nil
		}
		switch f.Kind {
		case "submit":
			sub, err := pub.DecodeSubmitPayload(f.Payload)
			if err != nil {
				return nil, err
			}
			if err := node.Submit(ctx, sub); err != nil {
				return nil, err
			}
			return []*transport.Frame{{Kind: "ack", Payload: []byte("accepted")}}, nil
		case "submit-batch":
			d := tr.child(spDecode, f.Kind, shard, sp, f.Sender)
			subs, err := pub.DecodeSubmissionBatch(f.Payload)
			tr.end(d)
			if err != nil {
				return nil, err
			}
			a := tr.child(spAdmit, f.Kind, shard, sp, f.Sender)
			verdicts, err := node.SubmitBatch(ctx, subs)
			tr.end(a)
			if err != nil {
				return nil, err
			}
			tr.count("vdp.admit.members", int64(len(subs)))
			for _, v := range verdicts {
				if v != nil {
					tr.count("vdp.admit.rejected", 1)
				}
			}
			return []*transport.Frame{{
				Kind:    "batch-verdicts",
				Payload: vdp.EncodeBatchVerdicts(vdp.VerdictsFor(subs, verdicts)),
			}}, nil
		default:
			return nil, fmt.Errorf("unexpected frame kind %q", f.Kind)
		}
	}
}

// standbyDispatch serves the replica RPC until promotion and the node
// dispatch afterwards, as cmd/vdpserver does in standby mode.
func standbyDispatch(ctx context.Context, pub *vdp.Public, sb *cluster.Standby, tr *tracer, shard int) transport.Handler {
	return func(f *transport.Frame) ([]*transport.Frame, error) {
		if cluster.IsRPC(f.Kind) {
			sp := tr.dispatch(spStandby, shard, f)
			defer tr.end(sp)
			return sb.Handle(f), nil
		}
		node := sb.Node()
		if node == nil {
			return nil, fmt.Errorf("standby does not take submissions until promoted")
		}
		return nodeDispatch(ctx, pub, node, tr, shard)(f)
	}
}
