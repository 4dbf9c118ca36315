package congest

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"lcshortcut/internal/gen"
	"lcshortcut/internal/graph"
)

// awaitEngines are the runs Await is compared across: the event-loop engine,
// which sleeps, against the stepping reference on the channel engine and on
// the sharded engine at one and four shards.
var awaitEngines = []struct {
	name   string
	e      Engine
	shards int
}{
	{"eventloop", EngineEventLoop, 0},
	{"channel", EngineChannel, 0},
	{"sharded1", EngineSharded, 1},
	{"sharded4", EngineSharded, 4},
}

// awaitMessyProc mixes every barrier form at random — StepRound, Step with
// InboxArc reads, Await to a near or far deadline, and Idle — with random
// sends and uneven lifetimes. With forever set, the far Await has no
// deadline, so nodes that never get mail sleep into the watchdog. Each node
// records one trace entry per barrier call: the call kind, the round it
// returned at and a digest of what it received, so the trace pins every wake
// round and every inbox.
func awaitMessyProc(trace [][]int, forever bool) Proc {
	return func(ctx *Ctx) error {
		id := ctx.ID()
		rng := ctx.Rand()
		rec := func(kind int, in []Message) {
			h := kind*1_000_003 + ctx.Round()
			for _, m := range in {
				h = h*31 + m.From*7 + m.Payload.(intMsg).v
			}
			trace[id] = append(trace[id], h)
		}
		trace[id] = append(trace[id], -1-ctx.Incarnation())
		lifetime := 1 + rng.Intn(14)
		for i := 0; i < lifetime; i++ {
			if rng.Intn(2) == 0 {
				for k := range ctx.Neighbors() {
					if rng.Intn(3) == 0 {
						ctx.SendArc(k, intMsg{v: ctx.Round()*13 + id, bits: 4 + rng.Intn(10)})
					}
				}
			}
			switch rng.Intn(6) {
			case 0:
				rec(0, ctx.StepRound())
			case 1:
				ctx.Step()
				var in []Message
				for k, a := range ctx.Neighbors() {
					if p, ok := ctx.InboxArc(k); ok {
						in = append(in, Message{From: a.To, Payload: p})
					}
				}
				rec(1, in)
			case 2, 3:
				rec(2, ctx.Await(ctx.Round()+1+rng.Intn(12)))
			case 4:
				ctx.Idle(1 + rng.Intn(6))
				rec(4, nil)
			default:
				if rng.Intn(3) == 0 {
					far := ctx.Round() + 40
					if forever {
						far = math.MaxInt
					}
					rec(5, ctx.Await(far))
				} else {
					rec(5, ctx.Await(ctx.Round()-rng.Intn(3)))
				}
			}
		}
		return nil
	}
}

// TestAwaitDifferential is Await's determinism contract: on every graph,
// seed and fault plan, the sleeping event-loop engine and the stepping
// reference on the channel and sharded engines produce identical per-node
// traces (wake rounds and inboxes), identical Stats and identical errors.
func TestAwaitDifferential(t *testing.T) {
	graphs := []*graph.Graph{
		gen.Path(9),
		gen.Ring(16),
		gen.Grid(6, 7),
		gen.Star(11),
		gen.ErdosRenyi(40, 0.12, 3),
	}
	plans := []struct {
		name string
		plan func(n int) *FaultPlan
	}{
		{"none", func(int) *FaultPlan { return nil }},
		{"crash-stop", func(n int) *FaultPlan {
			return &FaultPlan{Crashes: RandomCrashes(n, 0.2, 10, -1, 5)}
		}},
		{"crash-recovery", func(n int) *FaultPlan {
			return &FaultPlan{Crashes: RandomRecoveries(n, 0.25, 10, 6, -1, 5)}
		}},
		{"lossy-rotate", func(int) *FaultPlan {
			return &FaultPlan{DropProb: 0.2, Adversary: AdversaryRotate, Seed: 9}
		}},
	}
	aborted, runs := 0, 0
	for gi, g := range graphs {
		for _, pl := range plans {
			for seed := int64(1); seed <= 6; seed++ {
				runs++
				plan := pl.plan(g.NumNodes())
				var refTrace [][]int
				var refStats Stats
				var refErr error
				for _, eng := range awaitEngines {
					trace := make([][]int, g.NumNodes())
					stats, err := RunOn(eng.e, g, awaitMessyProc(trace, seed%3 == 0), Options{
						Seed: seed + int64(gi)*100, Faults: plan, MaxRounds: 600, Shards: eng.shards})
					if eng.e == EngineEventLoop {
						refTrace, refStats, refErr = trace, stats, err
						if err != nil {
							aborted++
						}
						continue
					}
					where := fmt.Sprintf("graph %d plan %s seed %d: %s", gi, pl.name, seed, eng.name)
					if fmt.Sprint(err) != fmt.Sprint(refErr) {
						t.Fatalf("%s: err %v, eventloop %v", where, err, refErr)
					}
					if stats != refStats {
						t.Fatalf("%s: stats %+v, eventloop %+v", where, stats, refStats)
					}
					for v := range trace {
						if fmt.Sprint(trace[v]) != fmt.Sprint(refTrace[v]) {
							t.Fatalf("%s: node %d trace %v, eventloop %v", where, v, trace[v], refTrace[v])
						}
					}
				}
			}
		}
	}
	t.Logf("%d of %d runs ended in an error", aborted, runs)
}

// TestAwaitWakeRules pins the wake rules on a path 0-1-2: mail wakes an
// Await at the round it becomes readable, a deadline ends it empty-handed,
// a dropped message never wakes it, and Idle ignores mail.
func TestAwaitWakeRules(t *testing.T) {
	for _, eng := range awaitEngines {
		t.Run(eng.name, func(t *testing.T) {
			type got struct{ round, n int }
			var await1, lossy1, idle2 got
			run := func(plan *FaultPlan, out *got) {
				_, err := RunOn(eng.e, gen.Path(3), func(ctx *Ctx) error {
					switch ctx.ID() {
					case 0:
						ctx.Idle(4)
						ctx.Send(1, intMsg{v: 1, bits: 1}) // readable at round 5
						ctx.StepRound()
					case 1:
						in := ctx.Await(20)
						*out = got{ctx.Round(), len(in)}
						ctx.Send(2, intMsg{v: 2, bits: 1})
						ctx.StepRound()
					default:
						ctx.Idle(30)
						idle2 = got{ctx.Round(), 0}
					}
					return nil
				}, Options{Faults: plan, Shards: eng.shards})
				if err != nil {
					t.Fatal(err)
				}
			}
			run(nil, &await1)
			if await1 != (got{5, 1}) {
				t.Errorf("Await woke at %+v, want round 5 with one message", await1)
			}
			if idle2 != (got{30, 0}) {
				t.Errorf("Idle(30) returned at round %d, want 30", idle2.round)
			}
			run(&FaultPlan{DropProb: 1, Seed: 1}, &lossy1)
			if lossy1 != (got{20, 0}) {
				t.Errorf("Await under total loss woke at %+v, want its deadline 20 with nothing", lossy1)
			}
		})
	}
}

// TestAwaitAllAsleepWatchdog: when every live node awaits mail with no
// deadline, the event-loop engine jumps the clock into the watchdog and must
// end with the ErrMaxRounds and Stats that stepping produces.
func TestAwaitAllAsleepWatchdog(t *testing.T) {
	var ref Stats
	for _, eng := range awaitEngines {
		stats, err := RunOn(eng.e, gen.Grid(5, 5), func(ctx *Ctx) error {
			if ctx.ID()%3 == 0 {
				ctx.SendAll(intMsg{v: 1, bits: 3})
			}
			for {
				ctx.Await(math.MaxInt)
			}
		}, Options{MaxRounds: 300, Shards: eng.shards})
		if !errors.Is(err, ErrMaxRounds) {
			t.Fatalf("%s: err = %v, want ErrMaxRounds", eng.name, err)
		}
		if eng.e == EngineEventLoop {
			ref = stats
			if stats.Rounds != 301 {
				t.Fatalf("eventloop: %d rounds, want 301", stats.Rounds)
			}
			continue
		}
		if stats != ref {
			t.Fatalf("%s: stats %+v, eventloop %+v", eng.name, stats, ref)
		}
	}
}

// TestAwaitIdleJump: a run whose nodes all Idle is one clock jump on the
// event-loop engine, counting every skipped round.
func TestAwaitIdleJump(t *testing.T) {
	before := Wakeups()
	stats, err := RunOn(EngineEventLoop, gen.Grid(8, 8), func(ctx *Ctx) error {
		ctx.Idle(100_000)
		return nil
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 100_000 {
		t.Fatalf("rounds = %d, want 100000", stats.Rounds)
	}
	if w := Wakeups() - before; w != 64 {
		t.Fatalf("%d wakeups, want 64 (one per node, at the deadline)", w)
	}
}

// TestAwaitAbortNoGoroutineLeak: a run that aborts while nodes sleep — on a
// deadline, on mail, in Idle — must unwind every sleeper, like
// TestEventLoopAbortNoGoroutineLeak.
func TestAwaitAbortNoGoroutineLeak(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name string
		proc Proc
	}{
		{"proc-error", func(ctx *Ctx) error {
			if ctx.ID() == 3 {
				ctx.Idle(5)
				return boom
			}
			switch ctx.ID() % 3 {
			case 0:
				ctx.Await(math.MaxInt)
			case 1:
				ctx.Idle(1000)
			default:
				ctx.Await(ctx.Round() + 50)
			}
			return nil
		}},
		{"violation", func(ctx *Ctx) error {
			if ctx.ID() == 3 {
				ctx.Idle(2)
				ctx.SendArc(0, intMsg{bits: 1})
				ctx.SendArc(0, intMsg{bits: 1})
			}
			ctx.Idle(1000)
			return nil
		}},
		{"watchdog", func(ctx *Ctx) error {
			ctx.Idle(1000)
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			_, err := RunOn(EngineEventLoop, gen.Ring(12), tc.proc, Options{MaxRounds: 500})
			if err == nil {
				t.Fatal("expected an error")
			}
			// Polled rather than read once: a node goroutine's WaitGroup
			// Done, which Run joins on, runs a few instructions before
			// the goroutine is gone.
			waitGoroutines(t, base)
		})
	}
}

// TestAwaitWakeupsPerAwakeNode: a token ring whose holders Await resumes
// about one node per round, where the stepping ring resumes every node.
func TestAwaitWakeupsPerAwakeNode(t *testing.T) {
	const n, rounds = 64, 640
	ring := func(await bool) Proc {
		return func(ctx *Ctx) error {
			next := ctx.ArcIndex((ctx.ID() + 1) % n)
			have := ctx.ID() == 0
			for ctx.Round() < rounds {
				if have {
					ctx.SendArc(next, intMsg{bits: 1})
					have = false
				}
				var in []Message
				if await {
					in = ctx.Await(rounds)
				} else {
					in = ctx.StepRound()
				}
				have = len(in) > 0
			}
			return nil
		}
	}
	var stats [2]Stats
	var wakeups [2]int64
	for i, await := range []bool{false, true} {
		before := Wakeups()
		st, err := RunOn(EngineEventLoop, gen.Ring(n), ring(await), Options{})
		if err != nil {
			t.Fatal(err)
		}
		stats[i], wakeups[i] = st, Wakeups()-before
	}
	if stats[0] != stats[1] {
		t.Fatalf("stats differ: stepping %+v, await %+v", stats[0], stats[1])
	}
	if wakeups[0] != n*rounds {
		t.Errorf("stepping ring: %d wakeups, want %d", wakeups[0], n*rounds)
	}
	if max := int64(rounds + n); wakeups[1] > max {
		t.Errorf("await ring: %d wakeups, want at most %d", wakeups[1], max)
	}
}
