// Command perfbench is the repository benchmark. It runs one of four seeded
// workloads — cached and cold shortcutd queries, sparse and dense CONGEST
// protocol runs — for a fixed time, checks every output, and prints its
// metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones a user waits for; with
// --trace 1 the benchmark times its own calls into each layer's exported
// API and reports the per-layer metrics instead. README.md explains the
// workloads and which layer metric should move which end-to-end metric.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload sim-dense --seed 3 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
	"time"
)

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, the same on every workload.
// An "op" is one query on svc-* and one pass on sim-*.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"live_heap_mb", "MB"},
	{"ok_ratio", "ratio"},
}

// perLayer lists the metrics of a traced run. A workload that does not call
// a layer reports 0 for it.
var perLayer = []metricDef{
	{"core.find_ms", "ms"},
	{"core.probes", "count"},
	{"core.iterations", "count"},
	{"core.seal_ms", "ms"},
	{"core.construct_ms", "ms"},
	{"scenario.build_ms", "ms"},
	{"partition.voronoi_ms", "ms"},
	{"tree.bfs_ms", "ms"},
	{"graph.builder_ms", "ms"},
	{"graph.fingerprint_us", "us"},
	{"shortcutsvc.hit_ref_us", "us"},
	{"shortcutsvc.hit_upload_us", "us"},
	{"shortcutsvc.miss_ms", "ms"},
	{"shortcutsvc.codec_us", "us"},
	{"shortcutsvc.codec_upload_us", "us"},
	{"http.transport_us", "us"},
	{"shortcutsvc.hit_ratio", "ratio"},
	{"shortcutsvc.coalesced", "count"},
	{"shortcutsvc.evictions", "count"},
	{"shortcutsvc.construct_ms_per_miss", "ms"},
	{"mst.run_ms", "ms"},
	{"mincut.run_ms", "ms"},
	{"bfsproto.run_ms", "ms"},
	{"congest.flood_er-dense_ms", "ms"},
	{"congest.flood_grid_ms", "ms"},
	{"congest.flood_grid-lossy_ms", "ms"},
	{"congest.rounds", "count"},
	{"congest.messages", "count"},
	{"congest.ns_per_node_round", "ns"},
	{"congest.ns_per_message", "ns"},
	{"congest.msgs_per_node_round", "ratio"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.max_rss_mb", "MB"},
	{"trace.overhead_op_p50_ms", "ms"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// report collects one run's outcome: checked outputs and named metrics.
type report struct {
	attempted, failed int
	values            map[string]float64
	samples           map[string]int
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}}
}

// set records a metric value with the number of samples behind it.
func (r *report) set(name string, v float64, samples int) {
	r.values[name] = v
	r.samples[name] = samples
}

// check counts one checked output, and a failure when err is non-nil.
func (r *report) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 10 {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: %v\n", err)
		}
	}
}

type workloadFunc func(cfg config, rep *report) error

var workloads = map[string]workloadFunc{
	"svc-hot":    runSvcHot,
	"svc-cold":   runSvcCold,
	"sim-sparse": runSimSparse,
	"sim-dense":  runSimDense,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "svc-hot, svc-cold, sim-sparse or sim-dense")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "how long the run measures")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	record := fs.String("record-reference", "", "run every sim variant once and write the congest.Stats reference to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *record != "" {
		return recordReference(*record)
	}
	wf, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be >= 1 and --trace 0 or 1")
	}
	cfg := config{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}

	fmt.Fprintf(out, "# env go=%s gomaxprocs=%d nproc=%d workload=%s seed=%d seconds=%d trace=%d\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cfg.workload, cfg.seed, *seconds, *trace)
	rep := newReport()
	if err := wf(cfg, rep); err != nil {
		return err
	}
	if rep.attempted == 0 {
		return errors.New("no output was checked")
	}
	rep.set("runtime.max_rss_mb", maxRSSMB(), 1)
	rep.set("ok_ratio", 1-float64(rep.failed)/float64(rep.attempted), rep.attempted)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	return writeResult(out, rep, defs)
}

// metricJSON is one entry of the result line's metrics object.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeResult prints a human-readable line per metric, then the JSON result
// line with exactly the metrics in defs.
func writeResult(out io.Writer, rep *report, defs []metricDef) error {
	metrics := make(map[string]metricJSON, len(defs))
	for _, d := range defs {
		v := rep.values[d.name]
		fmt.Fprintf(out, "# %-36s %14.6f %-6s samples=%d\n", d.name, v, d.unit, rep.samples[d.name])
		metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// maxRSSMB returns the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// mix derives a non-negative sub-seed from seed and a stream index
// (splitmix64 finalizer), so every input stream of a run follows from --seed.
func mix(seed int64, i int64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i) + 0x632be59bd9b4e019
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}
