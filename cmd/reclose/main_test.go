package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reclose/internal/codegen"
	"reclose/internal/core"
	"reclose/internal/fiveess"
	"reclose/internal/progs"
	"reclose/internal/randprog"
	"reclose/internal/synth"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenInputs are the programs whose analysis dump and emitted closed
// source are pinned byte for byte.
var goldenInputs = []struct{ name, src string }{
	{"figurep", progs.FigureP},
	{"figureq", progs.FigureQ},
	{"interproc", progs.Interproc},
	{"fiveess_small", fiveess.Source(fiveess.Scale("small"))},
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output differs from the golden file\n--- got:\n%s\n--- want:\n%s", name, got, want)
	}
}

// TestGoldenOutput pins the -dump-analysis and -emit output of the
// reference programs: any change to the analysis or the transform that
// alters a V_I set, a define-use-derived marking or the closed program
// shows up here as a diff.
func TestGoldenOutput(t *testing.T) {
	for _, in := range goldenInputs {
		path := filepath.Join(t.TempDir(), in.name+".mc")
		if err := os.WriteFile(path, []byte(in.src), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []string{"dump-analysis", "emit"} {
			var out, errb bytes.Buffer
			if code := realMain([]string{"-" + mode, path}, &out, &errb); code != 0 {
				t.Fatalf("%s -%s: exit %d: %s", in.name, mode, code, errb.String())
			}
			checkGolden(t, in.name+"."+mode+".golden", out.Bytes())
		}
	}
}

// TestCorpusDigest closes every synth shape at two sizes and 200
// random programs and pins one sha256 over the emitted closed source
// and the transformation statistics of all of them.
func TestCorpusDigest(t *testing.T) {
	h := sha256.New()
	add := func(label, src string) {
		closed, st, err := core.CloseSource(src)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		text, err := codegen.Emit(closed)
		if err != nil {
			t.Fatalf("%s: emit: %v", label, err)
		}
		fmt.Fprintf(h, "%s\n%s%+v\n", label, text, *st)
	}
	for _, shape := range []synth.Shape{synth.StraightLine, synth.Branchy, synth.Loopy, synth.ManyProcs} {
		for _, n := range []int{500, 2000} {
			add(fmt.Sprintf("synth/%s/%d", shape, n), synth.Program(shape, n))
		}
	}
	for seed := 0; seed < 200; seed++ {
		add(fmt.Sprintf("randprog/%d", seed), randprog.Generate(rand.New(rand.NewSource(int64(seed))), randprog.Config{}))
	}
	got := hex.EncodeToString(h.Sum(nil)) + "\n"
	checkGolden(t, "corpus.sha256", []byte(got))
}

// TestUsageAndErrors checks the exit codes of the command's failure
// paths.
func TestUsageAndErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain(nil, &out, &errb); code != 2 {
		t.Errorf("no arguments: exit %d, want 2", code)
	}
	if code := realMain([]string{"-no-such-flag", "x.mc"}, &out, &errb); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
	if code := realMain([]string{"-h"}, &out, &errb); code != 0 {
		t.Errorf("-h: exit %d, want 0", code)
	}
	bad := filepath.Join(t.TempDir(), "bad.mc")
	if err := os.WriteFile(bad, []byte("proc p( {"), 0o644); err != nil {
		t.Fatal(err)
	}
	errb.Reset()
	if code := realMain([]string{bad}, &out, &errb); code != 1 || !strings.Contains(errb.String(), "parse") {
		t.Errorf("bad source: exit %d, stderr %q; want 1 and a parse error", code, errb.String())
	}
}
