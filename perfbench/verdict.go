package main

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime/metrics"
	"sort"
	"strings"

	"reclose/internal/ast"
	"reclose/internal/cfg"
	"reclose/internal/codegen"
	"reclose/internal/core"
	"reclose/internal/dataflow"
	"reclose/internal/explore"
	"reclose/internal/interp"
	"reclose/internal/normalize"
	"reclose/internal/obs"
	"reclose/internal/parser"
	"reclose/internal/sem"
)

// outcome is what one source-to-verdict run produced.
type outcome struct {
	stats *core.Stats
	text  string          // close: the emitted closed program
	rep   *explore.Report // search: the exploration report
	ckpts int64           // search: checkpoints taken
	ckptB int64           // search: encoded checkpoint bytes
	err   error
}

// verdict runs p through the public calls the CLIs use: reclose's
// compile → close → VerifyClosed → Emit, or verisoft's compile → close
// → ExploreContext. Checkpoints, when the program asks for them, are
// encoded in memory as a checkpointing user would.
func verdict(ctx context.Context, p *program, engine interp.EngineKind) (o outcome) {
	defer recoverInto(&o.err)
	u, err := core.CompileSource(p.src)
	if err != nil {
		o.err = err
		return o
	}
	closed, st, err := core.Close(u)
	if err != nil {
		o.err = err
		return o
	}
	o.stats = st
	if !p.explore {
		if o.err = core.VerifyClosed(closed); o.err != nil {
			return o
		}
		o.text, o.err = codegen.Emit(closed)
		return o
	}
	opt := p.opt
	opt.Engine = engine
	if opt.CheckpointEveryPaths > 0 {
		opt.Checkpoint = func(s *explore.Snapshot) {
			b, err := s.Encode()
			if err != nil && o.err == nil {
				o.err = fmt.Errorf("checkpoint encode: %w", err)
			}
			o.ckpts++
			o.ckptB += int64(len(b))
		}
	}
	rep, err := explore.ExploreContext(ctx, closed, opt)
	if o.err == nil {
		o.rep, o.err = rep, err
	}
	return o
}

// layerCounts are the per-layer work counts of traced runs, summed over
// programs.
type layerCounts struct {
	ParseBytes   int64 `json:"parse_bytes"`
	CFGNodes     int64 `json:"cfg_nodes"`
	DFIterations int64 `json:"dataflow_iterations"`
	DUArcs       int64 `json:"dataflow_du_arcs"`
	DFAlloc      int64 `json:"dataflow_alloc_bytes"`
	NodesElim    int64 `json:"core_nodes_eliminated"`
	TossInserted int64 `json:"core_toss_inserted"`
	EmitBytes    int64 `json:"codegen_bytes"`

	CompileNanos int64 `json:"interp_compile_ns"`
	Instrs       int64 `json:"interp_instrs"`
	HashIncr     int64 `json:"interp_hash_incremental"`
	HashFull     int64 `json:"interp_hash_full"`

	States       int64 `json:"explore_states"`
	Transitions  int64 `json:"explore_transitions"`
	Paths        int64 `json:"explore_paths"`
	ReplaySteps  int64 `json:"explore_replay_steps"`
	SleepPrunes  int64 `json:"explore_sleep_prunes"`
	ExploreAlloc int64 `json:"explore_alloc_bytes"`

	CacheHits    int64 `json:"statecache_hits"`
	CacheMisses  int64 `json:"statecache_misses"`
	CacheInserts int64 `json:"statecache_inserts"`
	CacheEntries int64 `json:"statecache_entries"`
	CacheBytes   int64 `json:"statecache_bytes"`
	RedSearches  int64 `json:"red_searches"`
	RedStates    int64 `json:"red_states"`

	Checkpoints     int64 `json:"checkpoints"`
	CheckpointBytes int64 `json:"checkpoint_bytes"`
}

// tracedVerdict is verdict decomposed into the calls each layer exports,
// with a span around every call: the body of core.CompileSource
// (parser.Parse, sem.Check, normalize.Program, sem.Check again,
// cfg.CompileUnit, Unit.Validate), of core.Close (dataflow.Analyze,
// core.CloseAnalyzed) and of core.VerifyClosed (dataflow.Analyze of the
// closed unit, then the V_I scan), then codegen.Emit or
// explore.ExploreContext with an obs registry attached. The outcome must
// equal verdict's; checkSame enforces that.
func tracedVerdict(ctx context.Context, p *program, tr *tracer, lc *layerCounts) (o outcome) {
	defer recoverInto(&o.err)
	root := tr.begin(spanVerdict)
	defer tr.end(root)

	u, err := tracedCompile(p.src, tr, lc)
	if err != nil {
		o.err = err
		return o
	}
	var res *dataflow.Result
	allocSpan(tr, spanDataflow, &lc.DFAlloc, func() {
		res = dataflow.Analyze(u)
		err = res.Err()
	})
	countAnalysis(res, lc)
	if err != nil {
		o.err = err
		return o
	}
	var closed *cfg.Unit
	spanned(tr, spanClose, func() { closed, o.stats, err = core.CloseAnalyzed(u, res) })
	if err != nil {
		o.err = err
		return o
	}
	lc.NodesElim += int64(o.stats.NodesEliminated)
	lc.TossInserted += int64(o.stats.TossInserted)

	if !p.explore {
		if o.err = tracedVerifyClosed(closed, tr, lc); o.err != nil {
			return o
		}
		spanned(tr, spanCodegen, func() { o.text, o.err = codegen.Emit(closed) })
		lc.EmitBytes += int64(len(o.text))
		return o
	}

	reg := obs.New()
	opt := p.opt
	opt.Obs = reg
	if opt.CheckpointEveryPaths > 0 {
		opt.Checkpoint = func(s *explore.Snapshot) {
			var b []byte
			var err error
			spanned(tr, spanCheckpoint, func() { b, err = s.Encode() })
			if err != nil && o.err == nil {
				o.err = fmt.Errorf("checkpoint encode: %w", err)
			}
			o.ckpts++
			o.ckptB += int64(len(b))
		}
	}
	var rep *explore.Report
	allocSpan(tr, spanExplore, &lc.ExploreAlloc, func() { rep, err = explore.ExploreContext(ctx, closed, opt) })
	if o.err == nil {
		o.rep, o.err = rep, err
	}
	if rep != nil {
		countExplore(rep, reg, lc)
	}
	lc.Checkpoints += o.ckpts
	lc.CheckpointBytes += o.ckptB
	return o
}

// tracedCompile is core.CompileSource call by call.
func tracedCompile(src string, tr *tracer, lc *layerCounts) (*cfg.Unit, error) {
	var prog *ast.Program
	var err error
	spanned(tr, spanParser, func() { prog, err = parser.Parse([]byte(src)) })
	lc.ParseBytes += int64(len(src))
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	spanned(tr, spanSem, func() { _, err = sem.Check(prog) })
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	spanned(tr, spanNormalize, func() { normalize.Program(prog) })
	var info *sem.Info
	spanned(tr, spanSem, func() { info, err = sem.Check(prog) })
	if err != nil {
		return nil, fmt.Errorf("check (normalized): %w", err)
	}
	var u *cfg.Unit
	spanned(tr, spanCFG, func() {
		u = cfg.CompileUnit(prog, info)
		err = u.Validate()
	})
	if err != nil {
		return nil, fmt.Errorf("cfg: %w", err)
	}
	nodes, _ := u.Size()
	lc.CFGNodes += int64(nodes)
	return u, nil
}

// tracedVerifyClosed is core.VerifyClosed with its dataflow pass spanned
// apart from the Lemma 5 scan.
func tracedVerifyClosed(u *cfg.Unit, tr *tracer, lc *layerCounts) (err error) {
	verify := tr.begin(spanVerify)
	defer tr.end(verify)
	if u.IsOpen() {
		return errors.New("core: unit still declares an environment interface")
	}
	var res *dataflow.Result
	allocSpan(tr, spanDataflow, &lc.DFAlloc, func() { res = dataflow.Analyze(u) })
	countAnalysis(res, lc)
	for _, name := range u.Order {
		pr := res.Proc(name)
		for _, n := range pr.Graph.Nodes {
			if len(pr.VI[n.ID]) > 0 {
				return fmt.Errorf("core: proc %s node n%d has non-empty V_I (Lemma 5 violated)", name, n.ID)
			}
		}
	}
	return nil
}

func countAnalysis(res *dataflow.Result, lc *layerCounts) {
	lc.DFIterations += int64(res.Iterations)
	for _, pr := range res.Procs {
		lc.DUArcs += int64(len(pr.DU))
	}
}

func countExplore(rep *explore.Report, reg *obs.Registry, lc *layerCounts) {
	lc.States += rep.States
	lc.Transitions += rep.Transitions
	lc.Paths += rep.Paths
	lc.ReplaySteps += rep.ReplaySteps
	lc.SleepPrunes += rep.SleepPrunes
	lc.RedSearches += rep.RedSearches
	lc.RedStates += rep.RedStates
	lc.CompileNanos += reg.Gauge(explore.MetricInterpCompileNanos).Load()
	lc.Instrs += reg.Counter(explore.MetricInterpInstrs).Load()
	lc.HashIncr += reg.Counter(explore.MetricInterpHashIncr).Load()
	lc.HashFull += reg.Counter(explore.MetricInterpHashFull).Load()
	lc.CacheHits += reg.Counter(explore.MetricCacheHits).Load()
	lc.CacheMisses += reg.Counter(explore.MetricCacheMisses).Load()
	lc.CacheInserts += reg.Counter(explore.MetricCacheInserts).Load()
	lc.CacheEntries += reg.Gauge(explore.MetricCacheEntries).Load()
	lc.CacheBytes += reg.Gauge(explore.MetricCacheBytes).Load()
}

// spanned runs f inside a span named name.
func spanned(tr *tracer, name string, f func()) {
	s := tr.begin(name)
	f()
	tr.end(s)
}

// allocSpan is spanned that also adds the heap bytes allocated during f
// to *alloc.
func allocSpan(tr *tracer, name string, alloc *int64, f func()) {
	before := heapAllocBytes()
	spanned(tr, name, f)
	*alloc += int64(heapAllocBytes() - before)
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocBytes is the cumulative number of bytes allocated on the
// heap by this process.
func heapAllocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

func recoverInto(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("panic: %v", r)
	}
}

// checkExpected compares an outcome with the program's known answer.
// The close workload's second half of the answer — that the emitted
// text re-compiles to a closed unit — is checkRecompile, run once per
// program outside the timed loop.
func checkExpected(p *program, o outcome) error {
	if o.err != nil {
		return o.err
	}
	if !p.explore {
		return nil
	}
	if got := incidentClass(o.rep); got != p.Expect {
		return fmt.Errorf("verdict %s, want %s (%s)", got, p.Expect, o.rep)
	}
	return nil
}

// incidentClass names the kinds of incident a report found: "clean"
// for none, otherwise the kinds joined by "+".
func incidentClass(r *explore.Report) string {
	var kinds []string
	for _, k := range []struct {
		n    int64
		name string
	}{
		{r.Deadlocks, expectDeadlock}, {r.Violations, expectViolation}, {r.Livelocks, expectLivelock},
		{r.Traps, "trap"}, {r.Divergences, "divergence"}, {r.InternalErrors, "internal-error"},
	} {
		if k.n > 0 {
			kinds = append(kinds, k.name)
		}
	}
	if len(kinds) == 0 {
		return expectClean
	}
	return strings.Join(kinds, "+")
}

// checkRecompile re-compiles the emitted text of a closed program: it
// must parse and check, and declare no environment parameter. (Channels
// the transformation turned into stubs are emitted as env channels;
// that is how codegen spells a stub.)
func checkRecompile(text string) error {
	u, err := core.CompileSource(text)
	if err != nil {
		return fmt.Errorf("emitted program does not re-compile: %w", err)
	}
	for proc, set := range u.EnvParams {
		if len(set) > 0 {
			return fmt.Errorf("emitted program declares environment parameters of %s", proc)
		}
	}
	return nil
}

// checkSame compares two outcomes of the same program: closing
// statistics, emitted text, and every report counter, incident kind and
// checkpoint total. Runs of one program must agree across repetitions,
// between the traced and untraced pipelines, and across interpreter
// engines.
func checkSame(want, got outcome) error {
	if got.err != nil {
		return got.err
	}
	if !reflect.DeepEqual(want.stats, got.stats) {
		return fmt.Errorf("closing stats differ: %s vs %s", want.stats, got.stats)
	}
	if want.text != got.text {
		return errors.New("emitted text differs")
	}
	if want.rep == nil {
		return nil
	}
	if a, b := reportKey(want.rep), reportKey(got.rep); a != b {
		return fmt.Errorf("reports differ:\n  %s\n  %s", a, b)
	}
	if want.ckpts != got.ckpts || want.ckptB != got.ckptB {
		return fmt.Errorf("checkpoints differ: %d/%dB vs %d/%dB", want.ckpts, want.ckptB, got.ckpts, got.ckptB)
	}
	return nil
}

// reportKey renders every deterministic counter of a report plus the
// sorted incident sample kinds.
func reportKey(r *explore.Report) string {
	var kinds []string
	for _, in := range r.Samples {
		kinds = append(kinds, in.Kind.String()+":"+in.Msg)
	}
	sort.Strings(kinds)
	return fmt.Sprintf("%s paths=%d replay_steps=%d sleep=%d cache=%d livelocks=%d red=%d/%d cause=%s cov=%d/%d samples=%v",
		r, r.Paths, r.ReplaySteps, r.SleepPrunes, r.CachePrunes, r.Livelocks, r.RedSearches, r.RedStates,
		r.Cause, r.OpsCovered, r.OpsTotal, kinds)
}
