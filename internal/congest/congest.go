// Package congest simulates the CONGEST model of distributed computing
// (Peleg 2000): a synchronous message-passing network over an undirected
// graph in which every node may send at most one O(log n)-bit message to each
// neighbor per round.
//
// Every protocol in this repository is written as a per-node procedure
// (a Proc) that runs in its own goroutine and advances the global round
// clock by calling Ctx.StepRound — the synchronous barrier. The engine
// enforces the model (neighbor-only delivery, one message per edge-direction
// per round, optional strict message-size budgets) and accounts the model's
// cost metric exactly: the number of rounds, plus total messages and bits for
// diagnostics.
//
// The simulation is deterministic: nodes interact only through the engine at
// round barriers and each node's random source is seeded from (Options.Seed,
// node ID), so a run's outcome is independent of goroutine scheduling.
//
// # Engine internals
//
// The default engine (EngineEventLoop) allocates nothing in the steady
// state. It exploits the model invariant that each edge-direction carries at
// most one message per round: every node owns a fixed mailbox of degree(v)
// slots indexed by in-arc, laid out in one flat arena of 2m slots mirroring
// the graph's CSR arc arrays. Send writes straight into the receiver's slot
// through the graph's precomputed reverse-arc permutation — no queues, no
// per-round inbox slices — and slot occupancy is an epoch stamp (the round
// number), so nothing is ever cleared between rounds. Two stamp/payload
// arenas alternate by round parity so round-r readers never share an array
// with round-r+1 writers. The round barrier is a single atomic countdown
// over the awake nodes only, with per-node parking: the last node to arrive
// becomes the round leader and retires the round inline (round count,
// watchdog, cost accounting) — there is no coordinator goroutine. A node
// that calls Ctx.Await or Ctx.Idle leaves the countdown and sleeps until its
// deadline or, under Await, until mail reaches it: each send to a sleeping
// receiver is noted on the sender's own wake list, and the leader walks the
// arrivers' lists and a deadline heap to decide which nodes to unpark for the
// next round. When every live node sleeps and no mail is pending, the leader
// jumps the clock straight to the earliest deadline, still counting every
// skipped round. A sparse protocol round therefore costs time per awake
// node, not per live node. Engine state (runState) is pooled across runs, so
// a harness performing thousands of simulations reuses one arena.
package congest

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"

	"lcshortcut/internal/graph"
)

// Payload is the content of a CONGEST message. Bits reports the payload's
// size in bits, which the engine accounts and optionally enforces against
// Options.MaxMessageBits. Implementations should report an honest encoding
// size (IDs cost ~log2 n bits, etc.). The engine never mutates a Payload and
// may deliver the same Payload value to many receivers (SendAll), so
// implementations must be treated as immutable once sent; a sent Payload may
// stay referenced by the engine's mailbox arena until its slot is
// overwritten by a later send or the run completes.
type Payload interface {
	Bits() int
}

// Message is a payload together with the neighbor it arrived from.
type Message struct {
	From    graph.NodeID
	Payload Payload
}

// Proc is the per-node protocol procedure. It runs in its own goroutine with
// ctx bound to one vertex; returning ends the node's participation (any
// not-yet-delivered sends are still delivered at the next barrier). Returning
// a non-nil error aborts the whole run.
type Proc func(ctx *Ctx) error

// Options configures a simulation run.
type Options struct {
	// MaxRounds aborts the run once this many barriers have executed,
	// guarding against protocol bugs. 0 means DefaultMaxRounds.
	MaxRounds int
	// MaxMessageBits, when positive, makes the engine reject any message
	// whose payload reports more bits than this (the model's O(log n) budget).
	// When 0, sizes are measured but not enforced.
	MaxMessageBits int
	// Seed derives every node-local random source. Runs with equal seeds are
	// identical.
	Seed int64
	// Model selects the communication model: ModelCongest (the default) is
	// classic per-edge message passing, ModelRadio replaces Send/Inbox with
	// the single-channel radio primitive Transmit/RadioRecv in which
	// simultaneous neighbor transmissions collide (see radio.go).
	Model Model
	// Faults optionally plugs a deterministic fault plan into the run:
	// seeded crash-stop node failures, per-message loss and an adversarial
	// inbox schedule (see FaultPlan). nil selects the process-wide default
	// installed by SetDefaultFaults (itself nil unless a chaos harness set
	// one); a nil or empty plan leaves the simulation fault-free and
	// byte-identical to the pre-fault-layer engine.
	Faults *FaultPlan
	// Shards selects the worker-shard count of EngineSharded (ignored by the
	// other engines): how many contiguous arc-balanced vertex ranges the
	// mailbox arena is cut into, each retired in parallel at the barrier.
	// 0 uses the process-wide default (SetDefaultShards), itself defaulting
	// to GOMAXPROCS; the count is clamped to the node count. The seeded
	// output is byte-identical at every shard count — shards change only
	// wall-clock. Negative is an error.
	Shards int
}

// DefaultMaxRounds is the watchdog bound used when Options.MaxRounds is 0.
const DefaultMaxRounds = 500_000

// Stats reports the cost of a completed run.
type Stats struct {
	// Rounds is the number of synchronous rounds executed (the CONGEST
	// complexity measure).
	Rounds int
	// Messages is the total number of point-to-point messages delivered.
	Messages int64
	// TotalBits is the sum of payload sizes over all delivered messages.
	TotalBits int64
	// MaxMessageBits is the largest single payload observed.
	MaxMessageBits int
}

// Add accumulates another run's cost into s: counters sum, the max-size
// watermark is the maximum. The experiment harness uses it to aggregate the
// total simulated cost of an experiment across its simulation runs.
func (s *Stats) Add(o Stats) {
	s.Rounds += o.Rounds
	s.Messages += o.Messages
	s.TotalBits += o.TotalBits
	if o.MaxMessageBits > s.MaxMessageBits {
		s.MaxMessageBits = o.MaxMessageBits
	}
}

// Sentinel errors returned by Run (wrapped with context).
var (
	// ErrMaxRounds reports that the watchdog bound was hit.
	ErrMaxRounds = errors.New("congest: exceeded maximum round count")
	// ErrModelViolation reports a protocol breaking CONGEST rules (sending to
	// a non-neighbor, two messages over one edge-direction in a round, or an
	// oversized message under a strict bit budget).
	ErrModelViolation = errors.New("congest: model violation")
)

// errAbort is panicked into node goroutines blocked at the barrier when the
// run aborts, so they unwind and exit promptly.
var errAbort = errors.New("congest: run aborted")

// Engine selects a simulation engine implementation.
type Engine int32

const (
	// EngineEventLoop is the default engine: arc-slot mailbox arenas, an
	// atomic-countdown barrier with per-node parking, and pooled run state —
	// zero allocations per round in the steady state.
	EngineEventLoop Engine = iota
	// EngineChannel is the channel-coordinator engine this repository used
	// before the arena rewrite, kept as the behavioral reference: the golden
	// identity tests assert byte-identical experiment tables across engines,
	// and the engine benchmarks measure the speedup inside one binary.
	EngineChannel
	// EngineSharded is the multi-core engine: the event-loop engine's
	// arc-slot mailbox discipline with the CSR cut into P contiguous
	// arc-balanced shards (partition.ShardBounds), per-shard mailbox arenas,
	// an epoch-stamped cross-shard relay for boundary arcs and a two-level
	// barrier retired in parallel (see sharded.go). Seeded outputs are
	// byte-identical to the other engines at every shard count
	// (Options.Shards); only wall-clock changes.
	EngineSharded
)

// defaultEngine is the engine Run dispatches to; differential tests and
// benchmarks switch it via SetEngine.
var defaultEngine atomic.Int32

// SetEngine replaces the engine used by Run and returns the previous one.
// It must not be called while simulations are in flight.
func SetEngine(e Engine) Engine {
	return Engine(defaultEngine.Swap(int32(e)))
}

// CurrentEngine returns the engine Run currently dispatches to.
func CurrentEngine() Engine { return Engine(defaultEngine.Load()) }

// Run simulates proc on every vertex of g and returns the run's cost. It
// returns an error if any node's Proc errs, violates the model, panics, or if
// the watchdog bound is reached; the returned Stats are valid (partial) in
// either case.
func Run(g *graph.Graph, proc Proc, opts Options) (Stats, error) {
	return RunOn(CurrentEngine(), g, proc, opts)
}

// RunOn is Run on an explicitly chosen engine, regardless of the default.
func RunOn(e Engine, g *graph.Graph, proc Proc, opts Options) (Stats, error) {
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = DefaultMaxRounds
	}
	if opts.Faults == nil {
		opts.Faults = defaultFaults.Load()
	}
	if err := opts.Faults.validate(g.NumNodes()); err != nil {
		return Stats{}, err
	}
	if opts.Model != ModelCongest && opts.Model != ModelRadio {
		return Stats{}, fmt.Errorf("congest: unknown Options.Model %d", opts.Model)
	}
	if e == EngineChannel {
		return runChannel(g, proc, opts)
	}
	if e == EngineSharded {
		return runSharded(g, proc, opts)
	}
	return runEventLoop(g, proc, opts)
}

// Barrier arrival kinds published by a node before it joins the countdown.
// arriveAwait and arriveIdle end the round like arriveStep and then put the
// node to sleep (event-loop engine only): until Ctx.wakeAt or, for
// arriveAwait, until mail arrives.
const (
	arriveStep int32 = iota + 1
	arriveAwait
	arriveIdle
	arriveDone
	arriveFail
)

// Ctx is a node's handle to the simulation: its identity, neighborhood,
// send fast paths and the round barrier. A Ctx must only be used from the
// goroutine running its Proc.
type Ctx struct {
	id  graph.NodeID
	g   *graph.Graph
	run *runState   // event-loop engine state (nil under the other engines)
	leg *legacyNode // channel engine state (nil under the other engines)
	sh  *shardedRun // sharded engine state (nil under the other engines)
	// shard is the worker shard owning this node (sharded engine only).
	shard *shard
	// rng is the node's random source, allocated on first use and reseeded,
	// not reallocated, by pooled Ctxs (rand.Rand.Seed also clears its Read
	// buffer, so nothing carries over from a previous run). It takes rngSeed
	// on the first Rand call after run setup or a restart (rngArmed set):
	// seeding fills a 607-word table, which setup would do serially for
	// every node, and most protocols never draw.
	rng     *rand.Rand
	rngSeed int64
	// arcs is the node's adjacency materialized once from the graph's CSR
	// arrays at run setup (a sub-slice of the run's shared arc arena).
	arcs []graph.Arc
	// lo is the global CSR index of this node's first arc: arc k of this node
	// is global arc lo+k, and mailbox slot lo+k holds the message arriving
	// from neighbor k.
	lo int32
	// nWakes is the length of this node's wake list: the receivers of this
	// round's undropped sends that sleep in Await, kept in the run's wake
	// arena at [lo, lo+nWakes) for the leader to wake (event-loop engine).
	// At most one send per arc per round bounds it by the degree.
	nWakes int32
	round  int
	idBits int
	model  Model
	// crashAt is the node's scheduled crash round (noCrash when the fault
	// plan never crashes it): the node behaves normally through round
	// crashAt-1 and never sends, receives or steps in rounds
	// [crashAt, rejoinAt). rejoinAt is noCrash for a crash-stop entry; a
	// crash-recovery entry sets it to crashAt+Downtime, the round at which
	// the Proc restarts as incarnation+1 with fresh state.
	crashAt     int32
	rejoinAt    int32
	incarnation int32

	// Barrier state (event-loop engine). sleep is the leader-owned sleep
	// mode: arriveAwait or arriveIdle while the node sleeps, 0 while it is
	// awake; senders read it, only round leaders write it. wakeAt is the
	// deadline round a sleeping arrival publishes, and heapIdx the node's
	// position in the run's deadline heap. The int32 fields sit in what
	// would otherwise be alignment padding.
	arrival int32
	sleep   int32
	// rngArmed reports that rng has yet to take rngSeed.
	rngArmed bool
	err      error
	park     chan struct{}
	inbox    []Message
	wakeAt   int32
	heapIdx  int32

	// Send accounting since the last delivery barrier; the round leader
	// flushes these into the run totals exactly when the channel engine's
	// delivery pass would have counted them.
	pMsgs int64
	pBits int64
	pMax  int
}

// ID returns the vertex this Ctx is bound to.
func (c *Ctx) ID() graph.NodeID { return c.id }

// Round returns the number of completed barriers (the current round index).
func (c *Ctx) Round() int { return c.round }

// N returns the number of nodes in the network. CONGEST assumes nodes know a
// polynomially tight bound on n; we expose the exact value.
func (c *Ctx) N() int { return c.g.NumNodes() }

// IDBits returns BitsForID(N()) — the run-wide ID encoding width, computed
// once per run so payload size accounting need not recompute it per message.
func (c *Ctx) IDBits() int { return c.idBits }

// Neighbors returns the adjacency list of this node (arcs carry the global
// EdgeID of each incident edge). The slice is owned by the Ctx. The index of
// an arc in this slice is the arc index accepted by SendArc and InboxArc.
func (c *Ctx) Neighbors() []graph.Arc { return c.arcs }

// Degree returns the node's degree.
func (c *Ctx) Degree() int { return len(c.arcs) }

// ArcIndex returns the index of the arc leading to neighbor `to`, or -1 if
// `to` is not a neighbor. It is a linear scan — intended for protocols to
// resolve a NodeID to an arc index once and then use the SendArc/InboxArc
// fast paths.
func (c *Ctx) ArcIndex(to graph.NodeID) int {
	for i, a := range c.arcs {
		if a.To == to {
			return i
		}
	}
	return -1
}

// Rand returns the node-local deterministic random source.
func (c *Ctx) Rand() *rand.Rand {
	if c.rngArmed {
		c.rngArmed = false
		if c.rng == nil {
			c.rng = rand.New(rand.NewSource(c.rngSeed))
		} else {
			c.rng.Seed(c.rngSeed)
		}
	}
	return c.rng
}

// armRand makes seed the random source's seed from the next Rand call on.
func (c *Ctx) armRand(seed int64) {
	c.rngSeed, c.rngArmed = seed, true
}

// Incarnation reports how many times this node has crash-recovered: 0 for
// the original execution, k for the Proc's k-th restart. A Proc seeing a
// positive incarnation knows its state was wiped by a crash and can run a
// state-sync path against its neighbors (the network never announces the
// rejoin on its own).
func (c *Ctx) Incarnation() int { return int(c.incarnation) }

// down reports whether the node is inside its crash window — from its crash
// round up to (exclusive) its rejoin round. A fault-free node short-circuits
// on the first compare (crashAt is the noCrash sentinel).
func (c *Ctx) down() bool {
	return int32(c.round) >= c.crashAt && int32(c.round) < c.rejoinAt
}

// EdgeWeight returns the weight of edge id (edge weights are part of a
// node's local input for its incident edges).
func (c *Ctx) EdgeWeight(id graph.EdgeID) int64 { return c.g.Edge(id).W }

// Send buffers a message to neighbor `to` for delivery at the next barrier.
// It reports a model violation if `to` is not a neighbor, if a message was
// already buffered to `to` this round, or if the payload exceeds a strict bit
// budget. Violations abort the run (they are programmer errors in protocol
// code, surfaced as errors from Run). Protocols on a hot path should resolve
// the neighbor once with ArcIndex and use SendArc instead.
func (c *Ctx) Send(to graph.NodeID, p Payload) {
	if c.down() {
		return // crashed: a dead node's sends are lost (and can't violate)
	}
	idx := c.ArcIndex(to)
	if idx == -1 {
		c.fail(fmt.Errorf("%w: node %d sent to non-neighbor %d in round %d", ErrModelViolation, c.id, to, c.round))
	}
	c.SendArc(idx, p)
}

// SendArc buffers a message to the neighbor at arc index k (the index into
// Neighbors()) for delivery at the next barrier — the O(1) fast path behind
// Send, enforcing the same per-edge-direction and message-size budgets.
func (c *Ctx) SendArc(k int, p Payload) {
	if c.model != ModelCongest {
		c.fail(fmt.Errorf("%w: node %d called SendArc under ModelRadio in round %d", ErrModelViolation, c.id, c.round))
	}
	if c.down() {
		return // crashed: a dead node's sends are lost (and can't violate)
	}
	if uint(k) >= uint(len(c.arcs)) {
		c.fail(fmt.Errorf("%w: node %d sent on invalid arc index %d (degree %d) in round %d",
			ErrModelViolation, c.id, k, len(c.arcs), c.round))
	}
	if c.leg != nil {
		c.leg.sendIdx(c, k, p)
		return
	}
	if c.sh != nil {
		c.sh.sendArc(c, k, p)
		return
	}
	rs := c.run
	stamp := int32(c.round) + 1
	buf := stamp & 1
	s := rs.rev[c.lo+int32(k)]
	if rs.stamp[buf][s] == stamp {
		c.fail(fmt.Errorf("%w: node %d sent twice to neighbor %d in round %d", ErrModelViolation, c.id, c.arcs[k].To, c.round))
	}
	b := p.Bits()
	if limit := rs.opts.MaxMessageBits; limit > 0 && b > limit {
		c.fail(fmt.Errorf("%w: node %d sent %d-bit message (budget %d) in round %d", ErrModelViolation, c.id, b, limit, c.round))
	}
	rs.stamp[buf][s] = stamp
	rs.pay[buf][s] = p
	// The lossy network still charges the sender: the message consumed its
	// per-edge budget and counts toward Stats, it just never surfaces in an
	// inbox (the drop mask hides the slot from both read paths).
	if rs.dropThresh != 0 && dropped(rs.dropThresh, rs.faultSeed, stamp, s) {
		rs.dropMask[buf][s] = stamp
	} else if len(rs.heap) != 0 {
		c.noteWake(c.arcs[k].To)
	}
	c.pMsgs++
	c.pBits += int64(b)
	if b > c.pMax {
		c.pMax = b
	}
}

// noteWake records receiver `to` on this sender's wake list if it sleeps on
// mail. The sender writes only its own list, and a receiver's sleep mode
// changes only at retire, so senders never race each other or the leader.
func (c *Ctx) noteWake(to graph.NodeID) {
	if rs := c.run; rs.nodes[to].sleep == arriveAwait {
		rs.wakeArena[c.lo+c.nWakes] = int32(to)
		c.nWakes++
	}
}

// SendAll sends the same payload to every neighbor this round. On the
// event-loop engine it is a single pass over the node's reverse-arc slice
// with the budget checks hoisted out of the loop — the broadcast-flood fast
// path.
func (c *Ctx) SendAll(p Payload) {
	if c.model != ModelCongest {
		c.fail(fmt.Errorf("%w: node %d called SendAll under ModelRadio in round %d", ErrModelViolation, c.id, c.round))
	}
	if c.down() {
		return // crashed: a dead node's sends are lost (and can't violate)
	}
	if c.leg != nil {
		for i := range c.arcs {
			c.leg.sendIdx(c, i, p)
		}
		return
	}
	if c.sh != nil {
		c.sh.sendAll(c, p)
		return
	}
	deg := len(c.arcs)
	if deg == 0 {
		return
	}
	rs := c.run
	stamp := int32(c.round) + 1
	buf := stamp & 1
	st, pay := rs.stamp[buf], rs.pay[buf]
	b := p.Bits()
	if limit := rs.opts.MaxMessageBits; limit > 0 && b > limit {
		c.fail(fmt.Errorf("%w: node %d sent %d-bit message (budget %d) in round %d", ErrModelViolation, c.id, b, limit, c.round))
	}
	thresh := rs.dropThresh
	for i, s := range rs.rev[c.lo : c.lo+int32(deg)] {
		if st[s] == stamp {
			c.fail(fmt.Errorf("%w: node %d sent twice to neighbor %d in round %d", ErrModelViolation, c.id, c.arcs[i].To, c.round))
		}
		st[s] = stamp
		pay[s] = p
		if thresh != 0 && dropped(thresh, rs.faultSeed, stamp, s) {
			rs.dropMask[buf][s] = stamp
		}
	}
	if len(rs.heap) != 0 {
		for i, s := range rs.rev[c.lo : c.lo+int32(deg)] {
			if thresh == 0 || rs.dropMask[buf][s] != stamp {
				c.noteWake(c.arcs[i].To)
			}
		}
	}
	c.pMsgs += int64(deg)
	c.pBits += int64(deg) * int64(b)
	if b > c.pMax {
		c.pMax = b
	}
}

// StepRound is the synchronous barrier: it ends the node's current round,
// waits until every live node has done the same, and returns the messages
// neighbors sent this round (sorted by sender ID). Message delivery follows
// the CONGEST convention — a message sent in round r is available at the
// start of round r+1. The returned slice is reused: it is valid only until
// the node's next Step/StepRound.
func (c *Ctx) StepRound() []Message {
	if c.model != ModelCongest {
		c.fail(fmt.Errorf("%w: node %d called StepRound under ModelRadio in round %d (use Step + RadioRecv)", ErrModelViolation, c.id, c.round))
	}
	c.maybeCrash()
	if c.leg != nil {
		return c.leg.step(c)
	}
	c.stepBarrier()
	return c.gather()
}

// Step is the barrier alone: like StepRound but without materializing the
// inbox, for protocols that read specific arcs through InboxArc instead.
func (c *Ctx) Step() {
	c.maybeCrash()
	if c.leg != nil {
		c.leg.step(c)
		return
	}
	c.stepBarrier()
}

// maybeCrash enforces the node's scheduled crash at the barrier ending round
// crashAt-1. A crash-stop node arrives as a finished node — its buffered
// sends from the completed round are still delivered, matching the "final
// sends" convention — and its goroutine unwinds without ever entering round
// crashAt. A crash-recovery node unwinds the Proc the same way but does NOT
// arrive here: its goroutine wrapper catches errCrashedRecover, joins this
// same barrier as a stepping node (so the final sends are delivered
// identically) and keeps stepping silently until the rejoin round. On the
// fault-free path crashAt is the noCrash sentinel and the check is one
// never-taken branch; a rejoined node additionally fails the rejoinAt
// compare so it can never crash twice.
func (c *Ctx) maybeCrash() {
	if int32(c.round)+1 < c.crashAt || int32(c.round) >= c.rejoinAt {
		return
	}
	if c.rejoinAt != noCrash {
		panic(errCrashedRecover)
	}
	if c.leg != nil {
		c.leg.run.yield <- yieldSignal{id: c.id, kind: yieldDone}
	} else {
		c.arrive(arriveDone)
	}
	panic(errCrashed)
}

// InboxArc returns the message the neighbor at arc index k sent this round,
// if any. It reads the mailbox slot directly — no scan, no allocation — and
// is valid between a Step (or StepRound) and the node's next barrier. An
// out-of-range index is a model violation, mirroring SendArc.
func (c *Ctx) InboxArc(k int) (Payload, bool) {
	if c.model != ModelCongest {
		c.fail(fmt.Errorf("%w: node %d called InboxArc under ModelRadio in round %d", ErrModelViolation, c.id, c.round))
	}
	if c.down() {
		return nil, false // crashed: a dead node's slots stop delivering
	}
	if uint(k) >= uint(len(c.arcs)) {
		c.fail(fmt.Errorf("%w: node %d read invalid arc index %d (degree %d) in round %d",
			ErrModelViolation, c.id, k, len(c.arcs), c.round))
	}
	if c.leg != nil {
		return c.leg.inboxArc(c, k)
	}
	if c.sh != nil {
		return c.sh.inboxArc(c, k)
	}
	stamp := int32(c.round)
	if stamp == 0 {
		return nil, false
	}
	buf := stamp & 1
	s := c.lo + int32(k)
	if c.run.stamp[buf][s] != stamp {
		return nil, false
	}
	if c.run.dropThresh != 0 && c.run.dropMask[buf][s] == stamp {
		return nil, false
	}
	return c.run.pay[buf][s], true
}

// Await is the blocking receive: it ends the node's current round and
// returns at the first round r <= until whose inbox, exactly as StepRound
// would return it, is non-empty — or at round until with an empty inbox. It
// always ends at least one round, so Await(Round()+1) is StepRound. A
// dropped message does not wake the node, and a scheduled crash still takes
// effect at its exact round. The result is what repeated StepRound calls
// would produce (see AwaitByStepping, the reference), but on the event-loop
// engine the node sleeps outside the round barrier in between, so a protocol
// whose nodes Await in every round without a scheduled send or action pays
// per awake node, not per live node. InboxArc reads the returned round's
// slots as after any barrier.
func (c *Ctx) Await(until int) []Message {
	if c.model != ModelCongest {
		c.fail(fmt.Errorf("%w: node %d called Await under ModelRadio in round %d (use Step + RadioRecv)", ErrModelViolation, c.id, c.round))
	}
	if c.run == nil {
		return AwaitByStepping(c, until)
	}
	for {
		c.maybeCrash()
		if !c.sleepUntil(until, arriveAwait) {
			c.stepBarrier()
		}
		if in := c.gather(); len(in) > 0 || c.round >= until {
			return in
		}
	}
}

// AwaitByStepping is the stepping reference of Await over any barrier:
// StepRound until a round delivers mail or the round clock reaches until.
// The channel and sharded engines and wrappers such as reliable.Ctx
// implement Await with it, and tests use it as the oracle for the
// event-loop engine's sleeping implementation.
func AwaitByStepping(n interface {
	StepRound() []Message
	Round() int
}, until int) []Message {
	for {
		if in := n.StepRound(); len(in) > 0 || n.Round() >= until {
			return in
		}
	}
}

// Idle advances the node through k barriers, discarding anything received.
// Use it only where the protocol guarantees no meaningful traffic arrives.
// On the event-loop engine the node sleeps through the k rounds and mail
// does not wake it: Idle(k) parks the goroutine once, until its deadline.
func (c *Ctx) Idle(k int) {
	if c.run == nil {
		for i := 0; i < k; i++ {
			c.Step()
		}
		return
	}
	end := c.round + k
	for c.round < end {
		c.maybeCrash()
		if !c.sleepUntil(end, arriveIdle) {
			c.stepBarrier()
		}
	}
}

// sleepUntil ends the current round as a sleeping arrival of the given kind
// and returns once the leader wakes the node, with its round clock set. The
// deadline is until, pulled in to the round of the node's next scheduled
// crash so maybeCrash runs exactly where stepping would run it. It reports
// false, without arriving, when the deadline is the very next round: the
// caller steps instead, so every sleeper's deadline lies past the round its
// sleep begins in.
func (c *Ctx) sleepUntil(until int, kind int32) bool {
	deadline := int64(until)
	if int32(c.round)+1 < c.crashAt {
		deadline = min(deadline, int64(c.crashAt)-1)
	}
	if deadline <= int64(c.round)+1 {
		return false
	}
	c.wakeAt = int32(min(deadline, noCrash))
	c.arrive(kind)
	return true
}

// stepBarrier joins the countdown barrier as a stepping node and advances
// the local round clock once released.
func (c *Ctx) stepBarrier() {
	c.arrive(arriveStep)
	c.round++
}

// gather materializes this round's inbox from the mailbox slots, scanning
// them in ascending sender ID (the graph's precomputed by-neighbor order) so
// inbox order is deterministic without sorting. The buffer is reused.
func (c *Ctx) gather() []Message {
	if c.sh != nil {
		return c.sh.gather(c)
	}
	rs := c.run
	stamp := int32(c.round)
	buf := stamp & 1
	st := rs.stamp[buf]
	pay := rs.pay[buf]
	c.inbox = c.inbox[:0]
	lo := c.lo
	if thresh := rs.dropThresh; thresh != 0 {
		dm := rs.dropMask[buf]
		for _, j := range rs.order[lo : lo+int32(len(c.arcs))] {
			if s := lo + int32(j); st[s] == stamp && dm[s] != stamp {
				c.inbox = append(c.inbox, Message{From: c.arcs[j].To, Payload: pay[s]})
			}
		}
	} else {
		for _, j := range rs.order[lo : lo+int32(len(c.arcs))] {
			if s := lo + int32(j); st[s] == stamp {
				c.inbox = append(c.inbox, Message{From: c.arcs[j].To, Payload: pay[s]})
			}
		}
	}
	if rs.adversary == AdversaryRotate {
		scrambleInbox(rs.faultSeed, c.round, c.id, c.inbox)
	}
	return c.inbox
}

// fail aborts the run with err, unwinding this goroutine.
func (c *Ctx) fail(err error) {
	if c.leg != nil {
		c.leg.fail(c, err)
	}
	c.err = err
	c.arrive(arriveFail)
	panic(errAbort)
}

// arrive publishes this node's barrier arrival and joins the countdown. The
// last arriver leads the round (classification, accounting, watchdog, wake).
// Stepping and sleeping nodes return once released into a later round;
// done/fail arrivals return immediately after their (possible) leadership
// duty, since their goroutine is exiting.
func (c *Ctx) arrive(kind int32) {
	c.arrival = kind
	if c.sh != nil {
		c.sh.arrive(c, kind)
		return
	}
	rs := c.run
	if rs.pending.Add(-1) == 0 {
		switch rs.lead(c) {
		case leadResume:
			return
		case leadAbort:
			if kind < arriveDone {
				panic(errAbort)
			}
			return
		}
	}
	if kind >= arriveDone {
		return
	}
	<-c.park
	if rs.aborted {
		panic(errAbort)
	}
}

// runState is the pooled per-run engine state: the mailbox arenas, the node
// table, the awake set, the sleepers' deadline heap and the barrier
// countdown.
type runState struct {
	g    *graph.Graph
	opts Options
	// rev and order alias the graph's derived arc views (see graph.RevArcs
	// and graph.ArcsByNeighborID).
	rev   []int32
	order []int32
	// nodes is the node table (length = capacity high-water mark; the first
	// NumNodes entries belong to the current run).
	nodes []Ctx
	// arcArena backs every node's Neighbors() slice, laid out exactly like
	// the CSR arc arrays.
	arcArena []graph.Arc
	// stamp/pay are the mailbox arenas: slot lo(v)+k holds the message
	// in flight to v from its k-th neighbor, stamped with the round at which
	// it becomes readable. Two arenas alternate by round parity so round-r
	// readers never share an array with round-(r+1) writers; stale stamps
	// simply never match, so nothing is cleared between rounds.
	stamp [2][]int32
	pay   [2][]Payload
	// txStamp/txPay are the radio-model transmission arenas (one slot per
	// node, parity-doubled and epoch-stamped like the mailbox arenas; see
	// radio.go). They are grown only for ModelRadio runs.
	txStamp [2][]int32
	txPay   [2][]Payload
	// Fault-layer state (see fault.go). dropMask mirrors the stamp arenas:
	// a slot whose mask equals the current stamp holds a message the lossy
	// network swallowed — charged to the sender, invisible to both read
	// paths. The arenas are grown only for runs whose plan actually drops
	// (dropThresh != 0) and are epoch-stamped, so nothing is cleared between
	// rounds; fault-free runs see dropThresh == 0 and skip every check.
	dropMask   [2][]int32
	dropThresh uint64
	faultSeed  int64
	adversary  Adversary
	// awake lists the nodes in the current round's countdown, in no
	// particular order; rebuilt in place by the round leader.
	awake []int32
	// woken is the leader's scratch list of sleepers woken by mail, and
	// wakeArena backs every node's wake list (see Ctx.nWakes), laid out
	// like the CSR arc arrays.
	woken     []int32
	wakeArena []int32
	// heap is the min-heap of sleeping nodes keyed by Ctx.wakeAt; a node's
	// position is Ctx.heapIdx. Its length is the sleeper count, which
	// senders test before noting wakeups.
	heap    []int32
	pending atomic.Int32
	aborted bool
	err     error

	rounds  int
	msgs    int64
	bitsSum int64
	maxBits int
	// wakeups counts node resumptions at retire (the awake set size summed
	// over rounds), published to Wakeups at run end.
	wakeups int64
	wg      sync.WaitGroup
}

var runPool = sync.Pool{New: func() any { return new(runState) }}

// totalWakeups accumulates runState.wakeups over finished event-loop runs.
var totalWakeups atomic.Int64

// Wakeups returns the number of node resumptions at round barriers summed
// over every event-loop run this process has finished: a node counts once
// per round it is awake in after the first. Without sleeping nodes it is
// the live node count summed over rounds; Await and Idle lower it. Callers
// diff it around a run to measure the awake fraction.
func Wakeups() int64 { return totalWakeups.Load() }

// What the round leader does next, returned by lead.
const (
	leadResume = iota // run on into the next round
	leadPark          // sleep (or exit) until woken
	leadAbort         // the run aborted
)

// lead retires the round: it runs on the last awake node to arrive at the
// barrier, with every awake node accounted for (parked steppers and
// sleepers, exiting done/fail arrivals) while sleeping nodes stay parked. It
// classifies arrivals, aborts on failure or watchdog, flushes the arrivers'
// send accounting when the round delivers, and builds the next awake set:
// the steppers, every sleeper with mail (new sleepers by a scan of their
// slots, old ones from the arrivers' wake lists) and every sleeper whose
// deadline is the new round. If that set is empty the clock jumps to the
// earliest deadline. It then resets the countdown and unparks the awake set.
func (rs *runState) lead(leader *Ctx) int {
	arrived := rs.awake
	var err error
	errID := int32(-1)
	live := len(rs.heap)
	for _, id := range arrived {
		switch nd := &rs.nodes[id]; nd.arrival {
		case arriveFail:
			// The lowest failing node ID wins, whatever the arrival order.
			if err == nil || id < errID {
				err, errID = nd.err, id
			}
		case arriveDone:
		default:
			live++
		}
	}
	if err == nil && live > 0 {
		rs.rounds++
		if rs.rounds > rs.opts.MaxRounds {
			err = fmt.Errorf("%w (%d)", ErrMaxRounds, rs.opts.MaxRounds)
		}
	}
	if err != nil {
		rs.abort(err, leader)
		for _, id := range arrived {
			nd := &rs.nodes[id]
			nd.nWakes = 0
			if nd.arrival < arriveDone && nd != leader {
				nd.park <- struct{}{}
			}
		}
		return leadAbort
	}
	if live == 0 {
		return leadPark // every node finished: the run ends undelivered
	}
	stamp := int32(rs.rounds)
	woken := rs.woken[:0]
	w := 0
	for _, id := range arrived {
		nd := &rs.nodes[id]
		// Matches the channel engine's delivery pass: sends buffered by
		// this barrier are counted even if the sender has finished, and
		// not counted at all when the run aborts or ends this barrier.
		rs.msgs += nd.pMsgs
		rs.bitsSum += nd.pBits
		if nd.pMax > rs.maxBits {
			rs.maxBits = nd.pMax
		}
		nd.pMsgs, nd.pBits, nd.pMax = 0, 0, 0
		// Old sleepers this node sent to. A wake list never names a node
		// put to sleep below: its sleep mode was 0 while the round ran.
		if nd.nWakes != 0 {
			for _, to := range rs.wakeArena[nd.lo : nd.lo+nd.nWakes] {
				if r := &rs.nodes[to]; r.sleep == arriveAwait {
					woken = rs.wake(woken, r)
				}
			}
			nd.nWakes = 0
		}
		switch nd.arrival {
		case arriveStep:
			arrived[w] = id
			w++
		case arriveAwait:
			if rs.hasMail(nd, stamp) {
				nd.round = rs.rounds
				arrived[w] = id
				w++
				continue
			}
			fallthrough
		case arriveIdle:
			nd.sleep = nd.arrival
			rs.push(id)
		}
	}
	rs.woken = woken
	awake := append(arrived[:w], woken...)
	if len(awake) == 0 && len(rs.heap) > 0 {
		// Every live node sleeps and no mail is pending: skip to the
		// earliest deadline, counting the skipped rounds. A deadline past
		// the watchdog ends the run exactly where stepping would.
		next := int(rs.nodes[rs.heap[0]].wakeAt)
		if next > rs.opts.MaxRounds {
			rs.rounds = rs.opts.MaxRounds + 1
			rs.abort(fmt.Errorf("%w (%d)", ErrMaxRounds, rs.opts.MaxRounds), leader)
			return leadAbort
		}
		rs.rounds = next
	}
	for len(rs.heap) > 0 && int(rs.nodes[rs.heap[0]].wakeAt) == rs.rounds {
		awake = rs.wake(awake, &rs.nodes[rs.heap[0]])
	}
	rs.awake = awake
	rs.pending.Store(int32(len(awake)))
	rs.wakeups += int64(len(awake))
	next := leadPark
	for _, id := range awake {
		if nd := &rs.nodes[id]; nd != leader {
			nd.park <- struct{}{}
		} else {
			next = leadResume
		}
	}
	return next
}

// abort ends the run with err: every sleeper is unparked to unwind (the
// caller unparks awake arrivers, after this has set aborted).
func (rs *runState) abort(err error, leader *Ctx) {
	rs.err = err
	rs.aborted = true
	for _, id := range rs.heap {
		if nd := &rs.nodes[id]; nd != leader {
			nd.park <- struct{}{}
		}
	}
}

// hasMail reports whether nd's inbox for round stamp is non-empty: any slot
// stamped for that round and not dropped.
func (rs *runState) hasMail(nd *Ctx, stamp int32) bool {
	st := rs.stamp[stamp&1]
	lo, hi := nd.lo, nd.lo+int32(len(nd.arcs))
	if rs.dropThresh != 0 {
		dm := rs.dropMask[stamp&1]
		for s := lo; s < hi; s++ {
			if st[s] == stamp && dm[s] != stamp {
				return true
			}
		}
		return false
	}
	for s := lo; s < hi; s++ {
		if st[s] == stamp {
			return true
		}
	}
	return false
}

// wake moves sleeping node nd into the awake set at the current round.
func (rs *runState) wake(awake []int32, nd *Ctx) []int32 {
	rs.remove(nd.heapIdx)
	nd.sleep = 0
	nd.round = rs.rounds
	return append(awake, int32(nd.id))
}

// push adds node id to the deadline heap.
func (rs *runState) push(id int32) {
	rs.heap = append(rs.heap, id)
	rs.nodes[id].heapIdx = int32(len(rs.heap) - 1)
	rs.siftUp(len(rs.heap) - 1)
}

// remove deletes the heap entry at position i.
func (rs *runState) remove(i int32) {
	last := len(rs.heap) - 1
	if int(i) != last {
		rs.swap(int(i), last)
	}
	rs.heap = rs.heap[:last]
	if int(i) < last {
		rs.siftDown(int(i))
		rs.siftUp(int(i))
	}
}

func (rs *runState) heapLess(i, j int) bool {
	return rs.nodes[rs.heap[i]].wakeAt < rs.nodes[rs.heap[j]].wakeAt
}

func (rs *runState) swap(i, j int) {
	h := rs.heap
	h[i], h[j] = h[j], h[i]
	rs.nodes[h[i]].heapIdx = int32(i)
	rs.nodes[h[j]].heapIdx = int32(j)
}

func (rs *runState) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !rs.heapLess(i, p) {
			return
		}
		rs.swap(i, p)
		i = p
	}
}

func (rs *runState) siftDown(i int) {
	n := len(rs.heap)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && rs.heapLess(r, l) {
			m = r
		}
		if !rs.heapLess(m, i) {
			return
		}
		rs.swap(i, m)
		i = m
	}
}

// runEventLoop drives one simulation on the arena engine.
func runEventLoop(g *graph.Graph, proc Proc, opts Options) (Stats, error) {
	n := g.NumNodes()
	if n == 0 {
		return Stats{}, nil
	}
	// Slot stamps are int32 round numbers.
	if opts.MaxRounds > math.MaxInt32-2 {
		opts.MaxRounds = math.MaxInt32 - 2
	}
	rs := acquireRun(g, opts)
	rs.wg.Add(n)
	for v := 0; v < n; v++ {
		go nodeMain(&rs.nodes[v], proc)
	}
	rs.wg.Wait()
	totalWakeups.Add(rs.wakeups)
	stats := Stats{Rounds: rs.rounds, Messages: rs.msgs, TotalBits: rs.bitsSum, MaxMessageBits: rs.maxBits}
	err := rs.err
	releaseRun(rs)
	return stats, err
}

// nodeMain is the per-node goroutine wrapper: it converts proc errors and
// panics into fail arrivals and normal returns into done arrivals. A
// crash-recovery crash restarts proc after the downtime window, so the loop
// runs once per incarnation.
func nodeMain(c *Ctx, proc Proc) {
	var wg *sync.WaitGroup
	if c.sh != nil {
		wg = &c.sh.wg
	} else {
		wg = &c.run.wg
	}
	defer wg.Done()
	for {
		if !runProcOnce(c, proc) {
			return
		}
		// Crash with scheduled recovery: the node stays in the live set,
		// stepping silently through its downtime (the first barrier below is
		// the crash barrier itself, delivering the final-round sends), then
		// restarts as a fresh incarnation.
		if !downUntilRejoin(c) {
			return // the run aborted while the node was down
		}
		c.restart()
	}
}

// runProcOnce runs one incarnation of proc, classifying its exit: normal
// return and error/panic arrivals end the node (false); a crash with a
// scheduled recovery asks nodeMain to restart it (true).
func runProcOnce(c *Ctx, proc Proc) (restart bool) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if err, ok := r.(error); ok {
			switch {
			case errors.Is(err, errAbort), errors.Is(err, errCrashed):
				return // engine-initiated unwind (abort or crash-stop)
			case errors.Is(err, errCrashedRecover):
				restart = true
				return
			}
		}
		if err, ok := r.(error); ok {
			// Keep the chain inspectable: a transport wrapper panicking a
			// model violation surfaces as errors.Is(err, ErrModelViolation).
			c.err = fmt.Errorf("congest: node %d panicked: %w", c.id, err)
		} else {
			c.err = fmt.Errorf("congest: node %d panicked: %v", c.id, r)
		}
		c.arrive(arriveFail)
	}()
	if err := proc(c); err != nil {
		c.err = fmt.Errorf("congest: node %d: %w", c.id, err)
		c.arrive(arriveFail)
		return false
	}
	c.arrive(arriveDone)
	return false
}

// downUntilRejoin steps a crashed node silently through its downtime window
// on the event-loop engine. It reports false when the run aborted while the
// node was down.
func downUntilRejoin(c *Ctx) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if err, isErr := r.(error); isErr && errors.Is(err, errAbort) {
				ok = false
				return
			}
			panic(r)
		}
	}()
	for int32(c.round) < c.rejoinAt {
		if c.run == nil || !c.sleepUntil(int(c.rejoinAt), arriveIdle) {
			c.stepBarrier()
		}
	}
	return true
}

// restart rewinds a node for its next incarnation: the Proc will be invoked
// again from the top with Round() at the rejoin round, Incarnation()
// incremented and the random source reseeded as a pure function of
// (Options.Seed, node ID, incarnation) — so a restarted node's behavior does
// not depend on how many random draws its previous life consumed.
func (c *Ctx) restart() {
	c.incarnation++
	var seed int64
	switch {
	case c.leg != nil:
		seed = c.leg.run.opts.Seed
	case c.sh != nil:
		seed = c.sh.opts.Seed
	default:
		seed = c.run.opts.Seed
	}
	c.armRand(mix(mix(seed, int64(c.id)), int64(c.incarnation)))
}

// acquireRun takes a runState from the pool and sizes/resets it for g. All
// buffers grow to high-water marks and are reused across runs; freshly grown
// arrays are zero and released ones were scrubbed by releaseRun, so stamps
// start unoccupied without a per-acquire clear.
func acquireRun(g *graph.Graph, opts Options) *runState {
	rs := runPool.Get().(*runState)
	n := g.NumNodes()
	numArcs := int(g.ArcOffset(n))
	rs.g, rs.opts = g, opts
	rs.rev, rs.order = g.RevArcs(), g.ArcsByNeighborID()

	for i := range rs.stamp {
		rs.stamp[i] = growInt32(rs.stamp[i], numArcs)
		rs.pay[i] = growPayload(rs.pay[i], numArcs)
	}
	if opts.Model == ModelRadio {
		for i := range rs.txStamp {
			rs.txStamp[i] = growInt32(rs.txStamp[i], n)
			rs.txPay[i] = growPayload(rs.txPay[i], n)
		}
	}
	plan := opts.Faults
	rs.dropThresh = plan.dropThreshold()
	rs.faultSeed, rs.adversary = 0, AdversaryNone
	if plan != nil {
		rs.faultSeed, rs.adversary = plan.Seed, plan.Adversary
	}
	if rs.dropThresh != 0 {
		for i := range rs.dropMask {
			rs.dropMask[i] = growInt32(rs.dropMask[i], numArcs)
		}
	}
	if cap(rs.arcArena) < numArcs {
		rs.arcArena = make([]graph.Arc, 0, numArcs)
	}
	arena := rs.arcArena[:0]
	for v := 0; v < n; v++ {
		arena = g.AppendArcs(arena, v)
	}
	rs.arcArena = arena
	if len(rs.nodes) < n {
		nodes := make([]Ctx, n)
		copy(nodes, rs.nodes)
		rs.nodes = nodes
	}
	rs.awake = growInt32(rs.awake, n)
	rs.heap = growInt32(rs.heap, n)[:0]
	rs.woken = growInt32(rs.woken, n)[:0]
	rs.wakeArena = growInt32(rs.wakeArena, numArcs)
	idBits := BitsForID(n)
	for v := 0; v < n; v++ {
		nd := &rs.nodes[v]
		nd.id = v
		nd.g = g
		nd.run = rs
		nd.leg = nil
		nd.sh = nil
		nd.shard = nil
		lo, hi := g.ArcOffset(v), g.ArcOffset(v+1)
		nd.arcs = arena[lo:hi:hi]
		nd.lo = lo
		nd.round = 0
		nd.idBits = idBits
		nd.model = opts.Model
		nd.crashAt = noCrash
		nd.rejoinAt = noCrash
		nd.incarnation = 0
		nd.arrival = 0
		nd.err = nil
		nd.inbox = nd.inbox[:0]
		nd.sleep = 0
		nd.nWakes = 0
		nd.pMsgs, nd.pBits, nd.pMax = 0, 0, 0
		nd.armRand(mix(opts.Seed, int64(v)))
		if nd.park == nil {
			nd.park = make(chan struct{}, 1)
		}
		rs.awake[v] = int32(v)
	}
	if plan != nil {
		for _, cr := range plan.Crashes {
			// The earliest crash round wins; among equal rounds the first
			// entry wins (its Downtime rides along).
			if nd := &rs.nodes[cr.Node]; int32(cr.Round) < nd.crashAt {
				nd.crashAt = int32(cr.Round)
				nd.rejoinAt = cr.rejoinRound()
			}
		}
	}
	rs.pending.Store(int32(n))
	rs.aborted = false
	rs.err = nil
	rs.rounds, rs.msgs, rs.bitsSum, rs.maxBits, rs.wakeups = 0, 0, 0, 0, 0
	return rs
}

// releaseRun scrubs stale stamps and payload/graph references (so pooled
// state neither resurrects ghost messages nor pins a finished run's memory)
// and returns rs to the pool.
func releaseRun(rs *runState) {
	for i := range rs.stamp {
		st, pay := rs.stamp[i], rs.pay[i]
		for k := range st {
			st[k] = 0
		}
		for k := range pay {
			pay[k] = nil
		}
	}
	if rs.dropThresh != 0 {
		// Only a lossy run writes drop-mask stamps; scrub them so a pooled
		// arena cannot shadow a same-round slot of a later lossy run.
		for i := range rs.dropMask {
			dm := rs.dropMask[i]
			for k := range dm {
				dm[k] = 0
			}
		}
		rs.dropThresh = 0
	}
	if rs.opts.Model == ModelRadio {
		// Only a radio run writes the transmission arenas; scrub stamps and
		// payload references like the mailbox arenas above.
		for i := range rs.txStamp {
			st, pay := rs.txStamp[i], rs.txPay[i]
			for k := range st {
				st[k] = 0
			}
			for k := range pay {
				pay[k] = nil
			}
		}
	}
	n := rs.g.NumNodes()
	for v := 0; v < n; v++ {
		nd := &rs.nodes[v]
		inbox := nd.inbox[:cap(nd.inbox)]
		for k := range inbox {
			inbox[k] = Message{}
		}
		nd.inbox = inbox[:0]
		nd.g = nil
		nd.arcs = nil
		nd.run = nil
	}
	rs.g = nil
	rs.rev, rs.order = nil, nil
	rs.err = nil
	runPool.Put(rs)
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growPayload(s []Payload, n int) []Payload {
	if cap(s) < n {
		return make([]Payload, n)
	}
	return s[:n]
}

// mix derives a node-local seed from the run seed; splitmix64 finalizer.
func mix(seed, id int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(id)*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// BitsForID returns the number of bits this repository charges for encoding
// a value in [0, n): ceil(log2(n)), at least 1. It is the building block for
// honest Payload.Bits implementations.
func BitsForID(n int) int {
	if n <= 2 {
		return 1
	}
	return bits.Len(uint(n - 1))
}
