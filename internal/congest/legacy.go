package congest

import (
	"errors"
	"fmt"
	"sort"

	"lcshortcut/internal/graph"
)

// This file preserves the channel-coordinator engine (EngineChannel) exactly
// as it behaved before the arena rewrite: a dedicated coordinator goroutine
// gathers one yield signal per live node per round over a shared channel,
// performs the delivery pass into freshly allocated per-node inboxes, and
// resumes nodes over per-node channels. It is the behavioral reference for
// the event-loop engine — the golden identity tests run every experiment on
// both engines and require byte-identical tables — and the baseline for the
// same-binary engine benchmarks. It is not used by default.

type yieldKind int

const (
	yieldStep yieldKind = iota + 1
	yieldDone
	yieldFail
)

type yieldSignal struct {
	id   graph.NodeID
	kind yieldKind
	err  error
}

type outMsg struct {
	to      graph.NodeID
	payload Payload
	// dropped marks a message the fault plan's lossy network swallowed: the
	// delivery pass still counts it (the sender paid) but never delivers it.
	dropped bool
}

// legacyNode is the per-node state of the channel engine, hung off Ctx.leg.
type legacyNode struct {
	run    *legacyRun
	out    []outMsg
	resume chan []Message
	// sentAt[i] holds round+1 when a message was already buffered for
	// neighbor index i this round.
	sentAt []int
	// in stashes the last delivered inbox so InboxArc works on this engine
	// too (by linear scan — the reference engine favors fidelity over speed).
	in []Message
}

type legacyRun struct {
	g     *graph.Graph
	opts  Options
	yield chan yieldSignal
	nodes []*Ctx
	// Fault-layer state, mirroring runState: drop decisions key on the same
	// receiver-side arc slot (via the graph's reverse-arc permutation) and
	// the same hash, so both engines lose exactly the same messages.
	rev        []int32
	dropThresh uint64
	faultSeed  int64
	adversary  Adversary
	// txStamp/txPay are the radio-model transmission arenas (see radio.go);
	// node goroutines access them through the shared Ctx radio code path, with
	// the coordinator's channel handoffs providing the happens-before edges.
	txStamp [2][]int32
	txPay   [2][]Payload
}

// sendIdx buffers a message to the neighbor at arc index idx, enforcing the
// per-edge-direction and message-size budgets.
func (ln *legacyNode) sendIdx(c *Ctx, idx int, p Payload) {
	to := c.arcs[idx].To
	if ln.sentAt[idx] == c.round+1 {
		ln.fail(c, fmt.Errorf("%w: node %d sent twice to neighbor %d in round %d", ErrModelViolation, c.id, to, c.round))
	}
	if limit := ln.run.opts.MaxMessageBits; limit > 0 && p.Bits() > limit {
		ln.fail(c, fmt.Errorf("%w: node %d sent %d-bit message (budget %d) in round %d", ErrModelViolation, c.id, p.Bits(), limit, c.round))
	}
	ln.sentAt[idx] = c.round + 1
	drop := false
	if rs := ln.run; rs.dropThresh != 0 {
		s := rs.rev[c.lo+int32(idx)]
		drop = dropped(rs.dropThresh, rs.faultSeed, int32(c.round)+1, s)
	}
	ln.out = append(ln.out, outMsg{to: to, payload: p, dropped: drop})
}

// step is the channel-engine barrier: yield to the coordinator, block until
// resumed with this round's inbox.
func (ln *legacyNode) step(c *Ctx) []Message {
	ln.run.yield <- yieldSignal{id: c.id, kind: yieldStep}
	in, ok := <-ln.resume
	if !ok {
		panic(errAbort)
	}
	c.round++
	if ln.run.adversary == AdversaryRotate {
		scrambleInbox(ln.run.faultSeed, c.round, c.id, in)
	}
	ln.in = in
	return in
}

// inboxArc emulates the arena engine's InboxArc by scanning the stashed
// inbox for the neighbor at arc index k.
func (ln *legacyNode) inboxArc(c *Ctx, k int) (Payload, bool) {
	to := c.arcs[k].To
	for _, m := range ln.in {
		if m.From == to {
			return m.Payload, true
		}
	}
	return nil, false
}

// fail aborts the run with err, unwinding this goroutine.
func (ln *legacyNode) fail(c *Ctx, err error) {
	ln.run.yield <- yieldSignal{id: c.id, kind: yieldFail, err: err}
	<-ln.resume // engine closes the channel
	panic(errAbort)
}

// runChannel simulates proc on every vertex of g with the coordinator
// engine; see RunOn.
func runChannel(g *graph.Graph, proc Proc, opts Options) (Stats, error) {
	n := g.NumNodes()
	rs := &legacyRun{
		g:     g,
		opts:  opts,
		yield: make(chan yieldSignal, n),
		nodes: make([]*Ctx, n),
	}
	plan := opts.Faults
	if rs.dropThresh = plan.dropThreshold(); rs.dropThresh != 0 {
		rs.rev = g.RevArcs()
	}
	if plan != nil {
		rs.faultSeed, rs.adversary = plan.Seed, plan.Adversary
	}
	if opts.Model == ModelRadio {
		for i := range rs.txStamp {
			rs.txStamp[i] = make([]int32, n)
			rs.txPay[i] = make([]Payload, n)
		}
	}
	idBits := BitsForID(n)
	for v := 0; v < n; v++ {
		rs.nodes[v] = &Ctx{
			id:       v,
			g:        g,
			arcs:     g.AppendArcs(make([]graph.Arc, 0, g.Degree(v)), v),
			idBits:   idBits,
			model:    opts.Model,
			lo:       g.ArcOffset(v),
			crashAt:  noCrash,
			rejoinAt: noCrash,
			leg: &legacyNode{
				run:    rs,
				resume: make(chan []Message, 1),
				sentAt: make([]int, g.Degree(v)),
			},
		}
		rs.nodes[v].armRand(mix(opts.Seed, int64(v)))
	}
	if plan != nil {
		for _, cr := range plan.Crashes {
			// Earliest crash round wins, first entry among equal rounds —
			// mirroring acquireRun exactly.
			if nd := rs.nodes[cr.Node]; int32(cr.Round) < nd.crashAt {
				nd.crashAt = int32(cr.Round)
				nd.rejoinAt = cr.rejoinRound()
			}
		}
	}
	for v := 0; v < n; v++ {
		go legacyNodeMain(rs, rs.nodes[v], proc)
	}
	return coordinate(rs)
}

// coordinate drives round barriers until all nodes finish or the run aborts.
func coordinate(rs *legacyRun) (Stats, error) {
	var (
		stats    Stats
		firstErr error
		alive    = len(rs.nodes)
		waiting  = make([]graph.NodeID, 0, alive)
		inboxes  = make([][]Message, len(rs.nodes))
	)
	// abort releases every node still blocked at the barrier (they unwind via
	// errAbort and exit silently) and drains signals from nodes still
	// computing, so no goroutine outlives Run.
	abort := func() {
		for _, id := range waiting {
			close(rs.nodes[id].leg.resume)
			alive--
		}
		waiting = waiting[:0]
		for alive > 0 {
			sig := <-rs.yield
			if sig.kind == yieldStep || sig.kind == yieldFail {
				close(rs.nodes[sig.id].leg.resume)
			}
			alive--
		}
	}
	for alive > 0 {
		// Gather one signal from every live node.
		for len(waiting) < alive {
			sig := <-rs.yield
			switch sig.kind {
			case yieldStep:
				waiting = append(waiting, sig.id)
			case yieldDone:
				alive--
			case yieldFail:
				if firstErr == nil {
					firstErr = sig.err
				}
				close(rs.nodes[sig.id].leg.resume)
				alive--
			}
		}
		if firstErr != nil {
			abort()
			return stats, firstErr
		}
		if alive == 0 {
			break
		}
		stats.Rounds++
		if stats.Rounds > rs.opts.MaxRounds {
			firstErr = fmt.Errorf("%w (%d)", ErrMaxRounds, rs.opts.MaxRounds)
			abort()
			return stats, firstErr
		}
		// Deliver: iterate senders in ID order for deterministic inboxes.
		for id, ctx := range rs.nodes {
			// Radio transmissions are charged through the Ctx pending
			// counters (they have no outMsg); flush them exactly where the
			// sends below are counted so both engines account alike.
			if ctx.pMsgs != 0 {
				stats.Messages += ctx.pMsgs
				stats.TotalBits += ctx.pBits
				if ctx.pMax > stats.MaxMessageBits {
					stats.MaxMessageBits = ctx.pMax
				}
				ctx.pMsgs, ctx.pBits, ctx.pMax = 0, 0, 0
			}
			for _, m := range ctx.leg.out {
				// A dropped message is still charged to the sender — Stats
				// count sends, the model's cost — but never delivered.
				if !m.dropped {
					inboxes[m.to] = append(inboxes[m.to], Message{From: id, Payload: m.payload})
				}
				stats.Messages++
				b := m.payload.Bits()
				stats.TotalBits += int64(b)
				if b > stats.MaxMessageBits {
					stats.MaxMessageBits = b
				}
			}
			ctx.leg.out = ctx.leg.out[:0]
		}
		sort.Ints(waiting)
		for _, id := range waiting {
			in := inboxes[id]
			inboxes[id] = nil
			rs.nodes[id].leg.resume <- in
		}
		waiting = waiting[:0]
		// Messages to already-finished nodes are dropped.
		for id := range inboxes {
			inboxes[id] = nil
		}
	}
	return stats, nil
}

// legacyNodeMain mirrors nodeMain for the channel engine: one proc run per
// incarnation, with crash-recovery downtimes stepped silently in between.
func legacyNodeMain(rs *legacyRun, ctx *Ctx, proc Proc) {
	for {
		if !legacyRunProcOnce(rs, ctx, proc) {
			return
		}
		if !legacyDownUntilRejoin(ctx) {
			return // the run aborted while the node was down
		}
		ctx.restart()
	}
}

// legacyRunProcOnce runs one incarnation of proc under the channel engine,
// reporting whether nodeMain should restart it after a recovery downtime.
func legacyRunProcOnce(rs *legacyRun, ctx *Ctx, proc Proc) (restart bool) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if err, ok := r.(error); ok {
			switch {
			case errors.Is(err, errAbort), errors.Is(err, errCrashed):
				return // engine-initiated unwind (crash-stop already yielded done)
			case errors.Is(err, errCrashedRecover):
				restart = true
				return
			}
		}
		if err, ok := r.(error); ok {
			rs.yield <- yieldSignal{id: ctx.id, kind: yieldFail, err: fmt.Errorf("congest: node %d panicked: %w", ctx.id, err)}
			return
		}
		rs.yield <- yieldSignal{id: ctx.id, kind: yieldFail, err: fmt.Errorf("congest: node %d panicked: %v", ctx.id, r)}
	}()
	if err := proc(ctx); err != nil {
		rs.yield <- yieldSignal{id: ctx.id, kind: yieldFail, err: fmt.Errorf("congest: node %d: %w", ctx.id, err)}
		return false
	}
	rs.yield <- yieldSignal{id: ctx.id, kind: yieldDone}
	return false
}

// legacyDownUntilRejoin steps a crashed node silently through its downtime
// window (the first step is the crash barrier itself, delivering the final
// sends); false means the run aborted while the node was down.
func legacyDownUntilRejoin(ctx *Ctx) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if err, isErr := r.(error); isErr && errors.Is(err, errAbort) {
				ok = false
				return
			}
			panic(r)
		}
	}()
	for int32(ctx.round) < ctx.rejoinAt {
		ctx.leg.step(ctx)
	}
	return true
}
