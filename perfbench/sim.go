package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"lcshortcut/internal/bfsproto"
	"lcshortcut/internal/congest"
	"lcshortcut/internal/gen"
	"lcshortcut/internal/graph"
	"lcshortcut/internal/mincut"
	"lcshortcut/internal/mst"
	"lcshortcut/internal/scenario"
)

// simVariants is how many input sets the sim workloads draw from: a run
// uses variant seed mod simVariants, and reference.json records the exact
// congest.Stats of every protocol run of every variant, so each run's
// round and message counts are checked whatever its seed.
const simVariants = 16

func variantOf(seed int64) int { return int((seed%simVariants + simVariants) % simVariants) }

// floodRounds is the length of every sim-dense flood.
const floodRounds = 96

// protoRun is one protocol run of a pass. run goes through the default
// congest.Run and checks the protocol's output against a centralized
// reference computed in set-up.
type protoRun struct {
	// name is the span name; the per-layer metric is name + "_ms".
	name  string
	nodes int
	run   func() (congest.Stats, error)
}

// sparseRuns builds sim-sparse: paper protocols in which few nodes get mail
// in a round, so waking idle nodes and the barrier dominate.
func sparseRuns(variant int) ([]protoRun, error) {
	// E7's instance, the same for every seed: the shortcut-based MST's round
	// count swings between 29k and 103k with its protocol seed alone, which
	// would bury an engine change in seed noise. A 24x24 grid hits the
	// 500,000-round watchdog.
	mg := gen.WithUniqueWeights(gen.Grid(10, 10), 3)
	wantW, _, err := mst.Kruskal(mg)
	if err != nil {
		return nil, err
	}
	cg := scenario.MustGet("grid").Build(64, 0)
	wantCut, _, err := mincut.StoerWagner(cg)
	if err != nil {
		return nil, err
	}
	bg := scenario.MustGet("grid").Build(4096, 0)
	wantDepth := bg.BFS(0)

	return []protoRun{
		{"mst.run", mg.NumNodes(), func() (congest.Stats, error) {
			res, st, err := mst.Run(mg, 0, 7, mst.Config{Strategy: mst.StrategyShortcut}, congest.Options{})
			if err != nil {
				return st, err
			}
			for v, r := range res {
				if r == nil || r.Weight != wantW {
					return st, fmt.Errorf("mst: node %d disagrees with the Kruskal weight %d", v, wantW)
				}
			}
			return st, nil
		}},
		{"mincut.run", cg.NumNodes(), func() (congest.Stats, error) {
			out, st, err := mincut.Run(cg, 0, int64(7+variant), mincut.Config{Trees: 2}, congest.Options{})
			if err != nil {
				return st, err
			}
			if out.Cut != wantCut {
				return st, fmt.Errorf("mincut: cut %d, Stoer-Wagner %d", out.Cut, wantCut)
			}
			return st, nil
		}},
		{"bfsproto.run", bg.NumNodes(), func() (congest.Stats, error) {
			infos, st, err := bfsproto.Run(bg, 0, int64(variant), congest.Options{})
			if err != nil {
				return st, err
			}
			for v, in := range infos {
				if in == nil || in.Depth != wantDepth[v] {
					return st, fmt.Errorf("bfsproto: node %d depth differs from Graph.BFS depth %d", v, wantDepth[v])
				}
			}
			return st, nil
		}},
	}, nil
}

// beat is the flood's one-bit payload.
type beat struct{}

func (beat) Bits() int { return 1 }

// floodProc sends on every arc of every node in every one of rounds rounds.
func floodProc(rounds int) congest.Proc {
	return func(ctx *congest.Ctx) error {
		for r := 0; r < rounds; r++ {
			ctx.SendAll(beat{})
			ctx.StepRound()
		}
		return nil
	}
}

// floodRun floods g, under plan when it is non-nil. A fault-free flood
// delivers exactly floodRounds·2m messages.
func floodRun(name string, g *graph.Graph, variant int, plan *congest.FaultPlan) protoRun {
	return protoRun{name, g.NumNodes(), func() (congest.Stats, error) {
		st, err := congest.Run(g, floodProc(floodRounds), congest.Options{Seed: int64(variant), Faults: plan})
		if err == nil && plan == nil && st.Messages != int64(floodRounds*2*g.NumEdges()) {
			err = fmt.Errorf("%s: %d messages, want %d", name, st.Messages, floodRounds*2*g.NumEdges())
		}
		return st, err
	}}
}

// denseRuns builds sim-dense: floods in which every node has mail every
// round, so delivery, inbox assembly and the drop hash dominate.
func denseRuns(variant int) ([]protoRun, error) {
	eg := scenario.MustGet("er-dense").Build(2048, int64(1+variant))
	gg := scenario.MustGet("grid").Build(2025, 0)
	lossy := &congest.FaultPlan{DropProb: 0.2, Adversary: congest.AdversaryRotate, Seed: 11}
	return []protoRun{
		floodRun("congest.flood_er-dense", eg, variant, nil),
		floodRun("congest.flood_grid", gg, variant, nil),
		floodRun("congest.flood_grid-lossy", gg, variant, lossy),
	}, nil
}

//go:embed reference.json
var referenceJSON []byte

// referenceFile maps variant -> run name -> the run's exact congest.Stats.
type referenceFile map[string]map[string]congest.Stats

func loadReference(variant int) (map[string]congest.Stats, error) {
	var ref referenceFile
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return ref[strconv.Itoa(variant)], nil
}

// recordReference runs every protocol of every variant once and writes
// their congest.Stats to path. Rerun it only when a change is meant to alter
// round or message counts, and say so.
func recordReference(path string) error {
	ref := referenceFile{}
	for v := 0; v < simVariants; v++ {
		sparse, err := sparseRuns(v)
		if err != nil {
			return err
		}
		dense, err := denseRuns(v)
		if err != nil {
			return err
		}
		ref[strconv.Itoa(v)] = map[string]congest.Stats{}
		for _, pr := range append(sparse, dense...) {
			st, err := pr.run()
			if err != nil {
				return fmt.Errorf("variant %d: %w", v, err)
			}
			ref[strconv.Itoa(v)][pr.name] = st
			fmt.Fprintf(os.Stderr, "variant %d %-26s rounds=%d messages=%d\n", v, pr.name, st.Rounds, st.Messages)
		}
	}
	data, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func runSimSparse(cfg config, rep *report) error { return runSim(cfg, rep, sparseRuns) }
func runSimDense(cfg config, rep *report) error  { return runSim(cfg, rep, denseRuns) }

// passStats sums a pass's runs: their time and the totals behind the
// per-layer congest metrics.
type passStats struct {
	rounds, messages, nodeRounds int64
	runNs                        float64
}

// runPass runs every protocol of a pass once, checks each output and its
// congest.Stats against the reference, and returns the pass totals.
func runPass(runs []protoRun, want map[string]congest.Stats, tr *tracer, rep *report) passStats {
	var ps passStats
	root := tr.begin("pass", -1)
	for _, pr := range runs {
		var st congest.Stats
		var err error
		ps.runNs += float64(tr.do(pr.name, root, func() { st, err = pr.run() }).Nanoseconds())
		if w, ok := want[pr.name]; err == nil && !ok {
			err = fmt.Errorf("%s: no reference congest.Stats", pr.name)
		} else if err == nil && st != w {
			err = fmt.Errorf("%s: congest.Stats %+v, reference %+v", pr.name, st, w)
		}
		rep.check(err)
		ps.rounds += int64(st.Rounds)
		ps.messages += st.Messages
		ps.nodeRounds += int64(st.Rounds) * int64(pr.nodes)
	}
	tr.end(root)
	return ps
}

func runSim(cfg config, rep *report, build func(variant int) ([]protoRun, error)) error {
	variant := variantOf(cfg.seed)
	want, err := loadReference(variant)
	if err != nil {
		return err
	}
	runs, err := measureSetup(rep, func() ([]protoRun, error) { return build(variant) }, func([]protoRun) {})
	if err != nil {
		return err
	}
	if !cfg.trace {
		var passMs []float64
		start := time.Now()
		for len(passMs) == 0 || time.Since(start) < cfg.seconds {
			passMs = append(passMs, ms(timed(func() { runPass(runs, want, nil, rep) })))
		}
		setOps(rep, passMs, time.Since(start))
		setLiveHeap(rep)
		runtime.KeepAlive(runs)
		return nil
	}

	// Traced run: untraced and traced passes alternate, so drift over the
	// run falls on both sides of the tracing overhead.
	tr := newTracer()
	var plain, traced []float64
	var total passStats
	var mem memAcc
	start := time.Now()
	for i := 0; len(traced) == 0 || time.Since(start) < cfg.seconds; i++ {
		if i%2 == 0 {
			plain = append(plain, ms(timed(func() { runPass(runs, want, nil, rep) })))
			continue
		}
		var ps passStats
		mem.start()
		traced = append(traced, ms(timed(func() { ps = runPass(runs, want, tr, rep) })))
		mem.stop(1)
		total.rounds += ps.rounds
		total.messages += ps.messages
		total.nodeRounds += ps.nodeRounds
		total.runNs += ps.runNs
	}
	passes := len(traced)
	for _, pr := range runs {
		tr.setMedian(rep, pr.name+"_ms", pr.name, 1e6)
	}
	rep.set("congest.rounds", float64(total.rounds)/float64(passes), passes)
	rep.set("congest.messages", float64(total.messages)/float64(passes), passes)
	rep.set("congest.ns_per_node_round", total.runNs/float64(total.nodeRounds), passes)
	rep.set("congest.ns_per_message", total.runNs/float64(total.messages), passes)
	rep.set("congest.msgs_per_node_round", float64(total.messages)/float64(total.nodeRounds), passes)
	mem.report(rep)
	rep.set("trace.overhead_op_p50_ms", median(traced)-median(plain), passes)
	return tr.write(cfg)
}
