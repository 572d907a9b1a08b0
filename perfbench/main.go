// Command perfbench is the source-to-verdict benchmark. It draws a
// seeded set of MiniC programs for one workload, brings each from
// source text to a verdict through the same public calls the reclose
// and verisoft CLIs make, checks every verdict against the answer its
// generator flags promise, and prints the end-to-end metrics — or, with
// --trace 1, per-layer metrics from a traced run. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 165, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload close|search|liveness --seed N --seconds S --trace 0|1
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"reclose/internal/interp"
)

const (
	// setupRepeats is how many times a run sets up; setup_s is the
	// median.
	setupRepeats = 9
	// minPasses is the fewest passes over the draw an untraced run
	// makes, even past its time budget; minTracePasses is the same for
	// a traced run, whose passes alternate untraced and traced.
	minPasses      = 3
	minTracePasses = 4
	// oracleSample is how many search programs are re-run on the
	// reference interpreter after the timed loop.
	oracleSample = 3
	// maxFailureNotes caps the failure messages kept in a result.
	maxFailureNotes = 20
)

// config is one benchmark invocation.
type config struct {
	workload *workload
	seed     int64
	seconds  float64
	trace    bool
}

// metric is one reported value.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
}

// result is everything a run measured.
type result struct {
	Workload  string     `json:"workload"`
	Seed      int64      `json:"seed"`
	Seconds   float64    `json:"seconds"`
	Trace     bool       `json:"trace"`
	Host      hostInfo   `json:"host"`
	Draw      []*program `json:"draw"`
	Attempted int        `json:"attempted"`
	Failed    int        `json:"failed"`
	Failures  []string   `json:"failures,omitempty"`
	SetupRuns []float64  `json:"setup_runs_s"`
	Passes    int        `json:"passes"`
	// PassSeconds is the wall time each untraced pass spent in verdicts
	// (checks excluded), and PassPeakRSS its peak resident memory in
	// bytes.
	PassSeconds []float64 `json:"pass_s"`
	PassPeakRSS []float64 `json:"pass_peak_rss_bytes"`
	// ProgramSeconds holds, per program id, its untraced verdict times
	// in pass order.
	ProgramSeconds [][]float64 `json:"program_s"`
	Metrics        []metric    `json:"metrics"`
	// Counts sums the per-layer work counts over every traced run.
	Counts      layerCounts        `json:"counts"`
	TracedRuns  int                `json:"traced_runs"`
	SelfSeconds map[string]float64 `json:"self_seconds,omitempty"`

	tracer *tracer
}

func (r *result) add(name string, value float64, unit string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: value, Unit: unit})
}

func (r *result) fail(p *program, err error) {
	r.Failed++
	if len(r.Failures) < maxFailureNotes {
		r.Failures = append(r.Failures, fmt.Sprintf("p%02d %s %s: %v", p.ID, p.Gen, p.Params, err))
	}
}

func main() {
	name := flag.String("workload", "", "workload: close, search or liveness")
	seed := flag.Int64("seed", 1, "seed the program draw is made from")
	seconds := flag.Float64("seconds", 20, "how long the timed loop runs, in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
	flag.Parse()
	w := workloadByName(*name)
	if w == nil || flag.NArg() != 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload close|search|liveness --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	// One process makes the load: the explorer is sequential and the
	// runtime may use every CPU (for the garbage collector).
	runtime.GOMAXPROCS(runtime.NumCPU())

	c := config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1}
	r := run(context.Background(), c)
	r.Host = readHost(".")
	printResult(r)
}

// run sets up, runs the timed loop and the checks, and computes the
// metrics.
func run(ctx context.Context, c config) *result {
	r := &result{Workload: c.workload.name, Seed: c.seed, Seconds: c.seconds, Trace: c.trace}

	var progs []*program
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		progs = drawPrograms(c.workload, c.seed)
		wp := c.workload.warmup()
		o := verdict(ctx, wp, interp.EngineBytecode)
		r.SetupRuns = append(r.SetupRuns, time.Since(t0).Seconds())
		r.Attempted++
		if err := checkExpected(wp, o); err != nil {
			r.fail(wp, err)
		}
	}
	r.Draw = progs

	// refs holds each program's first checked outcome; later runs of
	// the program, traced runs and oracle runs must agree with it.
	refs := make([]*outcome, len(progs))
	check := func(p *program, o outcome) {
		if err := checkExpected(p, o); err != nil {
			r.fail(p, err)
			return
		}
		if refs[p.ID] == nil {
			refs[p.ID] = &o
			return
		}
		if err := checkSame(*refs[p.ID], o); err != nil {
			r.fail(p, err)
		}
	}

	r.ProgramSeconds = make([][]float64, len(progs))
	tracedSeconds := make([][]float64, len(progs))
	var lc layerCounts
	tr := newTracer()
	var cpu time.Duration
	var alloc uint64
	start := time.Now()
	budget := time.Duration(c.seconds * float64(time.Second))
	want := minPasses
	if c.trace {
		want = minTracePasses
	}
	// Passes continue until the one ending nearest the budget.
	var last time.Duration
	for r.Passes < want || time.Since(start)+last/2 < budget {
		traced := c.trace && r.Passes%2 == 1
		resetPeakRSS()
		passStart := time.Now()
		var verdicts float64 // seconds spent in verdicts, checks excluded
		for _, p := range progs {
			// Every verdict starts from a collected heap, as it would
			// in a fresh CLI process, so the garbage the previous
			// program left does not land on this one's clock.
			runtime.GC()
			cpu0, alloc0 := cpuTime(), heapAllocBytes()
			t0 := time.Now()
			var o outcome
			if traced {
				tr.program = p.ID
				o = tracedVerdict(ctx, p, tr, &lc)
			} else {
				o = verdict(ctx, p, interp.EngineBytecode)
			}
			d := time.Since(t0).Seconds()
			if traced {
				tracedSeconds[p.ID] = append(tracedSeconds[p.ID], d)
				r.TracedRuns++
			} else {
				cpu += cpuTime() - cpu0
				alloc += heapAllocBytes() - alloc0
				r.ProgramSeconds[p.ID] = append(r.ProgramSeconds[p.ID], d)
			}
			verdicts += d
			r.Attempted++
			check(p, o)
		}
		last = time.Since(passStart)
		if !traced {
			r.PassSeconds = append(r.PassSeconds, verdicts)
			r.PassPeakRSS = append(r.PassPeakRSS, float64(peakRSSBytes()))
		}
		r.Passes++
	}
	// Known answers that are too costly for the loop, once per program.
	for _, p := range progs {
		if ref := refs[p.ID]; ref != nil && !p.explore {
			if err := checkRecompile(ref.text); err != nil {
				r.fail(p, err)
			}
		}
	}
	if c.workload.name == "search" {
		or := rand.New(rand.NewSource(c.seed))
		for _, i := range or.Perm(len(progs))[:oracleSample] {
			p := progs[i]
			if refs[p.ID] == nil {
				continue
			}
			r.Attempted++
			if err := checkSame(*refs[p.ID], verdict(ctx, p, interp.EngineRef)); err != nil {
				r.fail(p, fmt.Errorf("reference engine diverges: %w", err))
			}
		}
	}

	if !c.trace {
		addEndToEnd(r, cpu.Seconds(), float64(alloc))
		return r
	}
	r.tracer = tr
	r.Counts = lc
	r.SelfSeconds = tr.selfTimes()
	untracedP50 := median(perProgramMedians(r.ProgramSeconds))
	tracedP50 := median(perProgramMedians(tracedSeconds))
	addLayerMetrics(r, tracedP50-untracedP50, tracedP50)
	return r
}

// addEndToEnd reports the untraced run's metrics from its verdict
// times, pass times and per-pass peak memory, plus the CPU time and
// heap allocation of its verdicts. Each program's times are folded to their median
// before the median over programs is taken, and rates and memory peaks
// are medians over passes, so that one slow pass moves nothing.
func addEndToEnd(r *result, cpu, alloc float64) {
	var samples []float64
	for _, ts := range r.ProgramSeconds {
		samples = append(samples, ts...)
	}
	n := float64(len(samples))
	pct := tailPercentile(len(r.ProgramSeconds) * minPasses)
	tail, beyond := percentile(samples, pct)
	var rates []float64
	for _, s := range r.PassSeconds {
		rates = append(rates, float64(len(r.ProgramSeconds))/s)
	}
	r.add("verdict_s.p50", median(perProgramMedians(r.ProgramSeconds)), "s")
	r.Metrics = append(r.Metrics, metric{Name: "verdict_s.tail", Value: tail, Unit: "s",
		Note: fmt.Sprintf("p%g of %d samples, %d beyond", pct, len(samples), beyond)})
	r.add("programs_per_s", median(rates), "1/s")
	r.add("cpu_s_per_program", cpu/n, "s")
	r.add("alloc_mb_per_program", alloc/1e6/n, "MB")
	r.add("peak_rss_mb", median(r.PassPeakRSS)/1e6, "MB")
	r.add("setup_s", median(r.SetupRuns), "s")
}

func perProgramMedians(times [][]float64) []float64 {
	var meds []float64
	for _, ts := range times {
		if len(ts) > 0 {
			meds = append(meds, median(ts))
		}
	}
	return meds
}

// addLayerMetrics reports the traced run: per-program self time and
// work counts of each layer, each layer's share of traced verdict time,
// and the tracing overhead.
func addLayerMetrics(r *result, overhead, tracedP50 float64) {
	n := float64(r.TracedRuns)
	self := r.SelfSeconds
	lc := &r.Counts
	per := func(v int64) float64 { return float64(v) / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var total float64
	for _, s := range self {
		total += s
	}

	r.add("parser.s", self[spanParser]/n, "s")
	r.add("parser.bytes_per_s", ratio(float64(lc.ParseBytes), self[spanParser]), "B/s")
	r.add("sem.s", self[spanSem]/n, "s")
	r.add("normalize.s", self[spanNormalize]/n, "s")
	r.add("cfg.s", self[spanCFG]/n, "s")
	r.add("cfg.nodes", per(lc.CFGNodes), "count")
	r.add("dataflow.s", self[spanDataflow]/n, "s")
	r.add("dataflow.iterations", per(lc.DFIterations), "count")
	r.add("dataflow.du_arcs", per(lc.DUArcs), "count")
	r.add("dataflow.alloc_mb", per(lc.DFAlloc)/1e6, "MB")
	r.add("core.close_s", self[spanClose]/n, "s")
	r.add("core.verify_s", self[spanVerify]/n, "s")
	r.add("core.nodes_eliminated", per(lc.NodesElim), "count")
	r.add("core.toss_inserted", per(lc.TossInserted), "count")
	r.add("codegen.s", self[spanCodegen]/n, "s")
	r.add("codegen.bytes", per(lc.EmitBytes), "B")
	r.add("interp.compile_s", per(lc.CompileNanos)/1e9, "s")
	r.add("interp.instrs", per(lc.Instrs), "count")
	r.add("interp.hash.incremental", per(lc.HashIncr), "count")
	r.add("interp.hash.full", per(lc.HashFull), "count")
	r.add("explore.s", self[spanExplore]/n, "s")
	r.add("explore.states", per(lc.States), "count")
	r.add("explore.transitions", per(lc.Transitions), "count")
	r.add("explore.paths", per(lc.Paths), "count")
	r.add("explore.replay_steps", per(lc.ReplaySteps), "count")
	r.add("explore.replay_ratio", ratio(float64(lc.ReplaySteps), float64(lc.Transitions+lc.ReplaySteps)), "ratio")
	r.add("explore.sleep_prunes", per(lc.SleepPrunes), "count")
	r.add("explore.alloc_mb", per(lc.ExploreAlloc)/1e6, "MB")
	r.add("statecache.hit_ratio", ratio(float64(lc.CacheHits), float64(lc.CacheHits+lc.CacheMisses)), "ratio")
	r.add("statecache.inserts", per(lc.CacheInserts), "count")
	r.add("statecache.entries", per(lc.CacheEntries), "count")
	r.add("statecache.bytes", per(lc.CacheBytes), "B")
	r.add("explore.liveness.red_searches", per(lc.RedSearches), "count")
	r.add("explore.liveness.red_states", per(lc.RedStates), "count")
	r.add("checkpoint.count", per(lc.Checkpoints), "count")
	r.add("checkpoint.bytes", per(lc.CheckpointBytes), "B")
	r.add("checkpoint.encode_s", self[spanCheckpoint]/n, "s")
	for _, l := range layers {
		name := l + ".share"
		if l == spanVerdict {
			name = "unattributed.share"
		}
		r.add(name, ratio(self[l], total), "ratio")
	}
	r.add("trace.verdict_s.p50", tracedP50, "s")
	r.add("trace.overhead_s", overhead, "s")
}

// resultsDir holds the result files, relative to the checkout root.
var resultsDir = filepath.Join(".bench_build", "results")

// printResult writes the result file (and the spans of a traced run)
// and prints the human-readable report followed by the JSON line.
func printResult(r *result) {
	h := r.Host
	fmt.Printf("host: nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s source=%s\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.Commit, h.Source)
	fmt.Printf("workload: %s seed=%d seconds=%g trace=%t programs=%d passes=%d\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, len(r.Draw), r.Passes)
	for _, p := range r.Draw {
		fmt.Printf("draw: p%02d %-11s %s expect=%s\n", p.ID, p.Gen, p.Params, p.Expect)
	}
	for _, m := range r.Metrics {
		line := fmt.Sprintf("metric: %-32s %14.6g %s", m.Name, m.Value, m.Unit)
		if m.Note != "" {
			line += " (" + m.Note + ")"
		}
		fmt.Println(line)
	}
	fmt.Printf("metric: %-32s %14.6g ratio (%d of %d)\n", "failed_ratio",
		float64(r.Failed)/float64(r.Attempted), r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Println("failure:", f)
	}

	stem := filepath.Join(resultsDir, fmt.Sprintf("%s-seed%d-trace%d", r.Workload, r.Seed, boolInt(r.Trace)))
	if err := writeFiles(r, stem); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing results:", err)
	} else {
		fmt.Println("results:", stem+".json")
	}

	ms := make(map[string]map[string]any, len(r.Metrics))
	for _, m := range r.Metrics {
		ms[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.Failed == 0, "attempted": r.Attempted, "failed": r.Failed, "metrics": ms,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func writeFiles(r *result, stem string) error {
	if err := os.MkdirAll(filepath.Dir(stem), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(stem+".json", append(b, '\n'), 0o644); err != nil {
		return err
	}
	if r.tracer != nil {
		return r.tracer.write(stem + ".spans.jsonl")
	}
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
