package core_test

import (
	"math/rand"
	"testing"

	"reclose/internal/codegen"
	"reclose/internal/core"
	"reclose/internal/progs"
	"reclose/internal/randprog"
	"reclose/internal/synth"
)

// FuzzClose drives arbitrary source through the whole closing pipeline.
// For every input the front end accepts and Close does not reject, the
// closed unit must satisfy Lemma 5 (VerifyClosed), closing it again
// must change nothing, and its emitted source must compile back to a
// program with no environment parameters. No input may panic.
func FuzzClose(f *testing.F) {
	for _, seed := range []string{
		progs.FigureP,
		progs.FigureQ,
		progs.SimpleTaint,
		progs.PathIndependent,
		progs.ProducerConsumer,
		progs.DeadlockProne,
		progs.AssertViolation,
		progs.Router,
		progs.Interproc,
		progs.Forwarder,
	} {
		f.Add([]byte(seed))
	}
	for _, shape := range []synth.Shape{synth.StraightLine, synth.Branchy, synth.Loopy, synth.ManyProcs} {
		f.Add([]byte(synth.Program(shape, 20)))
	}
	for seed := int64(0); seed < 8; seed++ {
		f.Add([]byte(randprog.Generate(rand.New(rand.NewSource(seed)), randprog.Config{})))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		if len(src) > 1<<14 {
			return
		}
		u, err := core.CompileSource(string(src))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		closed, _, err := core.Close(u)
		if err != nil {
			return
		}
		if err := core.VerifyClosed(closed); err != nil {
			t.Fatalf("closed unit violates Lemma 5: %v", err)
		}
		_, st, err := core.Close(closed)
		if err != nil {
			t.Fatalf("re-closing the closed unit: %v", err)
		}
		if st.NodesEliminated != 0 || st.TossInserted != 0 {
			t.Fatalf("closing a closed unit changed it: %s", st)
		}
		text, err := codegen.Emit(closed)
		if err != nil {
			t.Fatalf("emit: %v", err)
		}
		again, err := core.CompileSource(text)
		if err != nil {
			t.Fatalf("emitted program does not compile: %v\n%s", err, text)
		}
		for proc, set := range again.EnvParams {
			if len(set) > 0 {
				t.Fatalf("emitted program declares environment parameters of %s:\n%s", proc, text)
			}
		}
	})
}
