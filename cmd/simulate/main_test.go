package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reclose/internal/progs"
)

// simulate runs the command on src with the given stdin commands and
// returns its exit code, stdout and stderr.
func simulate(t *testing.T, src, commands string, flags ...string) (int, string, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.mc")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	code := realMain(append(flags, path), strings.NewReader(commands), &out, &errb)
	return code, out.String(), errb.String()
}

func wantLines(t *testing.T, out string, want ...string) {
	t.Helper()
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("output lacks %q:\n%s", w, out)
		}
	}
}

// TestSimulateClosedProgram steps two philosophers into their deadlock,
// shows the state, resets, and quits.
func TestSimulateClosedProgram(t *testing.T) {
	code, out, errs := simulate(t, progs.Philosophers(2), "0\n1\ns\nr\n0\nq\n")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, errs)
	}
	wantLines(t, out,
		"P0 (phil0): wait(fork0) [ENABLED]",
		"executed P0:wait(fork0)",
		"executed P1:wait(fork1)",
		"-- DEADLOCK",
		"fork0:0;fork1:0;\n  P0:0/phil0@n",
		"reset to the initial state",
	)
	if n := strings.Count(out, "executed P0:wait(fork0)"); n != 2 {
		t.Errorf("P0's first wait ran %d times, want 2 (before and after the reset)", n)
	}
}

// TestSimulateOpenProgram runs the auto-close path: the open program is
// closed first, a preselected toss outcome is consumed, and the session
// steps, shows state, resets and quits.
func TestSimulateOpenProgram(t *testing.T) {
	code, out, errs := simulate(t, progs.FigureP, "t 1\n0\ns\nr\n0\nq\n")
	if code != 0 {
		t.Fatalf("exit = %d, stderr:\n%s", code, errs)
	}
	wantLines(t, out,
		"closed automatically:",
		"preselected toss outcomes: [1]",
		"executed P0:send(evn)=0",
		"P0 (p): send(odd) [ENABLED]", // the preselected outcome 1 was taken
		"P0:0/p@n",
		"reset to the initial state",
	)
}

// TestSimulateUsage pins the usage contract: a missing operand exits 2
// with a usage line that does not advertise stdin source, and an
// unreadable file exits 1.
func TestSimulateUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain(nil, strings.NewReader(""), &out, &errb); code != 2 {
		t.Errorf("no args: exit = %d, want 2", code)
	}
	if usage := errb.String(); !strings.Contains(usage, "usage: simulate") || strings.Contains(usage, "use -") {
		t.Errorf("usage line = %q", usage)
	}
	errb.Reset()
	if code := realMain([]string{"-"}, strings.NewReader(""), &out, &errb); code != 1 {
		t.Errorf("simulate -: exit = %d, want 1", code)
	}
}
