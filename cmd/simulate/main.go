// Command simulate steps through a MiniC system interactively: at every
// global state it lists the enabled transitions and lets you pick which
// process runs and which VS_toss outcomes its transition takes — a
// hands-on version of the scheduler the explorer automates.
//
// Usage:
//
//	simulate [flags] file.mc
//
// Commands (one per line on stdin):
//
//	<n>      run process n's pending transition
//	t <k>    preselect k as the next VS_toss outcome (repeatable, FIFO)
//	s        show the full state (objects and process positions)
//	r        reset to the initial state
//	q        quit
//
// Open programs are closed automatically first.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"reclose/internal/core"
	"reclose/internal/interp"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// realMain runs the command with the given arguments, reading commands
// from stdin, and returns the process exit code: 0 on quit, end of
// input or -h, 1 on error, 2 on bad usage.
func realMain(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	partition := fs.Bool("partition", false, "partition comparison-only env inputs before closing")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: simulate [flags] file.mc (commands on stdin)\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	if err := run(fs.Arg(0), *partition, stdin, stdout); err != nil {
		fmt.Fprintf(stderr, "simulate: %v\n", err)
		return 1
	}
	return 0
}

type session struct {
	sys       *interp.System
	tossQueue []int
	out       io.Writer
}

// choose pops a preselected toss outcome, defaulting to 0.
func (s *session) choose(bound int) (int, bool) {
	if len(s.tossQueue) > 0 {
		k := s.tossQueue[0]
		s.tossQueue = s.tossQueue[1:]
		if k > bound {
			fmt.Fprintf(s.out, "  (toss %d out of range [0,%d], clamped)\n", k, bound)
			k = bound
		}
		return k, true
	}
	fmt.Fprintf(s.out, "  (VS_toss(%d): no preselected outcome, taking 0 — use 't <k>' first)\n", bound)
	return 0, true
}

func run(path string, partition bool, stdin io.Reader, stdout io.Writer) error {
	srcBytes, err := os.ReadFile(path)
	if err != nil {
		return err
	}

	unit, err := core.CompileSource(string(srcBytes))
	if err != nil {
		return err
	}
	if unit.IsOpen() {
		if partition {
			core.Partition(unit)
		}
		closed, st, err := core.Close(unit)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "closed automatically: %s\n", st)
		unit = closed
	}

	sys, err := interp.NewSystem(unit)
	if err != nil {
		return err
	}
	s := &session{sys: sys, out: stdout}
	chooser := interp.ChooserFunc(s.choose)

	if out := sys.Init(chooser); out != nil {
		return fmt.Errorf("initialization: %s", out)
	}
	s.prompt()

	sc := bufio.NewScanner(stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			// ignore
		case line == "q":
			return nil
		case line == "s":
			s.showState()
		case line == "r":
			sys.Reset()
			s.tossQueue = nil
			if out := sys.Init(chooser); out != nil {
				return fmt.Errorf("initialization: %s", out)
			}
			fmt.Fprintln(stdout, "reset to the initial state")
		case strings.HasPrefix(line, "t "):
			k, err := strconv.Atoi(strings.TrimSpace(line[2:]))
			if err != nil || k < 0 {
				fmt.Fprintln(stdout, "usage: t <non-negative outcome>")
				break
			}
			s.tossQueue = append(s.tossQueue, k)
			fmt.Fprintf(stdout, "preselected toss outcomes: %v\n", s.tossQueue)
		default:
			n, err := strconv.Atoi(line)
			if err != nil {
				fmt.Fprintln(stdout, "commands: <n> | t <k> | s | r | q")
				break
			}
			s.step(n, chooser)
		}
		s.prompt()
	}
	return sc.Err()
}

func (s *session) step(n int, chooser interp.Chooser) {
	if n < 0 || n >= len(s.sys.Procs) {
		fmt.Fprintf(s.out, "no process %d\n", n)
		return
	}
	if !s.sys.Enabled(n) {
		fmt.Fprintf(s.out, "P%d is not enabled\n", n)
		return
	}
	ev, out := s.sys.Step(n, chooser)
	fmt.Fprintf(s.out, "  executed %s\n", ev)
	if out != nil {
		fmt.Fprintf(s.out, "  !! %s\n", out)
	}
}

func (s *session) prompt() {
	switch {
	case s.sys.AllTerminated():
		fmt.Fprintln(s.out, "-- all processes terminated ('r' to reset, 'q' to quit) --")
	case s.sys.Deadlocked():
		fmt.Fprintln(s.out, "-- DEADLOCK ('r' to reset, 'q' to quit) --")
	default:
		fmt.Fprintln(s.out, "enabled transitions:")
		for i, p := range s.sys.Procs {
			if p.Status() != interp.Running {
				fmt.Fprintf(s.out, "  P%d (%s): terminated\n", i, p.TopProc)
				continue
			}
			op, obj, _ := p.PendingOp()
			state := "ENABLED"
			if !s.sys.Enabled(i) {
				state = "blocked"
			}
			fmt.Fprintf(s.out, "  P%d (%s): %s(%s) [%s]\n", i, p.TopProc, op, obj, state)
		}
	}
	fmt.Fprint(s.out, "> ")
}

func (s *session) showState() {
	fmt.Fprintln(s.out, strings.ReplaceAll(s.sys.Fingerprint(), "|", "\n  "))
}
