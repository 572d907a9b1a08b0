package main

import (
	"fmt"
	"math/rand"

	"reclose/internal/explore"
	"reclose/internal/fiveess"
	"reclose/internal/leaderelect"
	"reclose/internal/lockserver"
	"reclose/internal/synth"
)

// Expected verdicts. A program's expected verdict comes from the flags
// its generator was drawn with, never from running it.
const (
	expectClosed    = "closed"    // close: Lemma 5 holds and the emitted text re-compiles
	expectClean     = "clean"     // search: no incident of any kind
	expectDeadlock  = "deadlock"  // search: deadlocks and nothing else
	expectViolation = "violation" // search: assertion violations and nothing else
	expectLivelock  = "livelock"  // search: livelocks and nothing else
)

// program is one generated input: MiniC source text plus the verdict
// its generator flags promise and, for the search workloads, the
// exploration options it runs under.
type program struct {
	ID     int    `json:"id"`
	Gen    string `json:"generator"`
	Params string `json:"params"`
	Expect string `json:"expect"`
	Bytes  int    `json:"bytes"`

	src string
	// explore is false for the close workload (compile → close →
	// VerifyClosed → Emit) and true for the search workloads (compile →
	// close → ExploreContext).
	explore bool
	opt     explore.Options
}

// workload is one benchmark workload: a seeded draw of programs and a
// fixed warm-up program run once per set-up. README.md gives the reason
// each workload was chosen.
type workload struct {
	name string
	draw func(r *rand.Rand) []*program
	// warmup is seed-independent so that set-up time compares across
	// seeds.
	warmup func() *program
}

var workloads = []*workload{
	{
		name:   "close",
		draw:   drawClose,
		warmup: func() *program { return synthProgram(synth.Loopy, 2000) },
	},
	{
		name:   "search",
		draw:   drawSearch,
		warmup: func() *program { return searchProgram(fiveess.Scale("medium"), expectClean) },
	},
	{
		name:   "liveness",
		draw:   drawLiveness,
		warmup: func() *program { return livenessProgram("leaderelect", 6, false, 200) },
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// drawPrograms generates a workload's inputs from a seed: the same seed
// gives the same programs in the same order.
func drawPrograms(w *workload, seed int64) []*program {
	r := rand.New(rand.NewSource(seed))
	ps := w.draw(r)
	r.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	for i, p := range ps {
		p.ID = i
	}
	return ps
}

// Draws are stratified: every seed gets the same number of programs of
// each shape, size band and verdict class, and the seed picks the
// parameters inside each stratum. That keeps the mix — and with it the
// medians — comparable across seeds while the programs themselves
// differ.

// closeStrata is the number of size bands per synth shape over
// [closeMinN, closeMaxN). A drawn size lies within 5% of its band's
// centre: analysis time grows faster than linearly in N on the loopy
// shape, so a draw across the whole band would move the tail by the
// seed rather than by the code.
const (
	closeStrata = 8
	closeMinN   = 500
	closeMaxN   = 4000
)

func drawClose(r *rand.Rand) []*program {
	var ps []*program
	width := float64(closeMaxN-closeMinN) / closeStrata
	for _, sh := range []synth.Shape{synth.StraightLine, synth.Branchy, synth.Loopy, synth.ManyProcs} {
		for k := 0; k < closeStrata; k++ {
			centre := closeMinN + (float64(k)+0.5)*width
			ps = append(ps, synthProgram(sh, int(centre*(0.95+0.1*r.Float64()))))
		}
	}
	// 5ESS programs sized around the large and xlarge presets.
	for i := 0; i < 4; i++ {
		ps = append(ps, closeFiveESS(fiveess.Config{
			Handlers: 3 + r.Intn(3), Lines: 2, Features: 32 + r.Intn(17), Chain: 4,
			WithStub: r.Intn(2) == 0,
		}))
		ps = append(ps, closeFiveESS(fiveess.Config{
			Handlers: 7 + r.Intn(2), Lines: 3, Features: 100 + r.Intn(21), Chain: 5,
			WithStub: r.Intn(2) == 0,
		}))
	}
	return ps
}

func synthProgram(sh synth.Shape, n int) *program {
	src := synth.Program(sh, n)
	return &program{Gen: "synth", Params: fmt.Sprintf("shape=%s n=%d", sh, n),
		Expect: expectClosed, Bytes: len(src), src: src}
}

func closeFiveESS(c fiveess.Config) *program {
	src := fiveess.Source(c)
	return &program{Gen: "fiveess", Params: fiveessParams(c),
		Expect: expectClosed, Bytes: len(src), src: src}
}

func fiveessParams(c fiveess.Config) string {
	return fmt.Sprintf("handlers=%d lines=%d features=%d chain=%d stub=%t deadlock=%t race=%t",
		c.Handlers, c.Lines, c.Features, c.Chain, c.WithStub, c.InjectDeadlock, c.InjectRace)
}

// searchOptions is the search workload's budget: the default static POR
// and bytecode engine, sequential, bounded in depth and states.
var searchOptions = explore.Options{MaxDepth: 400, MaxStates: 20000}

// drawSearch draws 5ESS configs around the small and medium presets in
// four classes of equal size. Injected bugs use two handlers and the
// stub, the range where the generator's own tests establish that the
// bug is found; clean configs vary handlers and the stub freely.
func drawSearch(r *rand.Rand) []*program {
	var ps []*program
	add := func(handlers, lines int, stub bool, expect string) {
		c := fiveess.Config{
			Handlers: handlers, Lines: lines, Features: 4 + r.Intn(13), Chain: 2 + r.Intn(2),
			WithStub: stub, InjectDeadlock: expect == expectDeadlock, InjectRace: expect == expectViolation,
		}
		ps = append(ps, searchProgram(c, expect))
	}
	for rep := 0; rep < 3; rep++ {
		for lines := 1; lines <= 2; lines++ {
			for _, stub := range []bool{false, true} {
				add(1, lines, stub, expectClean)
				add(2, lines, stub, expectClean)
				add(2, lines, true, expectDeadlock)
				add(2, lines, true, expectViolation)
			}
		}
	}
	return ps
}

func searchProgram(c fiveess.Config, expect string) *program {
	src := fiveess.Source(c)
	return &program{Gen: "fiveess", Params: fiveessParams(c), Expect: expect,
		Bytes: len(src), src: src, explore: true, opt: searchOptions}
}

// drawLiveness draws every leader-election (4–6 nodes) and lock-server
// (3 clients, 1–2 rounds) config, clean and seeded, twice, each with a
// seeded checkpoint period.
func drawLiveness(r *rand.Rand) []*program {
	var ps []*program
	for rep := 0; rep < 2; rep++ {
		for _, seeded := range []bool{false, true} {
			for nodes := 4; nodes <= 6; nodes++ {
				ps = append(ps, livenessProgram("leaderelect", nodes, seeded, 100+r.Int63n(301)))
			}
			for rounds := 1; rounds <= 2; rounds++ {
				ps = append(ps, livenessProgram("lockserver", rounds, seeded, 100+r.Int63n(301)))
			}
		}
	}
	return ps
}

// livenessProgram builds a leaderelect ring of size n or a lockserver
// with 3 clients and n rounds. Checkpoints fire every ckptPaths paths.
func livenessProgram(gen string, n int, seeded bool, ckptPaths int64) *program {
	var src, params string
	if gen == "leaderelect" {
		src = leaderelect.Source(leaderelect.Config{Nodes: n, SeedLivelock: seeded})
		params = fmt.Sprintf("nodes=%d livelock=%t", n, seeded)
	} else {
		src = lockserver.Source(lockserver.Config{Clients: 3, Rounds: n, GreedyClient: seeded})
		params = fmt.Sprintf("clients=3 rounds=%d greedy=%t", n, seeded)
	}
	expect := expectClean
	if seeded {
		expect = expectLivelock
	}
	return &program{Gen: gen, Params: fmt.Sprintf("%s checkpoint_paths=%d", params, ckptPaths),
		Expect: expect, Bytes: len(src), src: src, explore: true,
		opt: explore.Options{MaxDepth: 200, Liveness: true, StateCache: true, CheckpointEveryPaths: ckptPaths}}
}
