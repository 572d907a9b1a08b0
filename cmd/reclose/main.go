// Command reclose closes an open MiniC program with its most general
// environment, implementing the transformation of "Automatically Closing
// Open Reactive Programs" (PLDI 1998).
//
// Usage:
//
//	reclose [flags] file.mc
//
// With no flags it prints the closed program as a control-flow-graph
// listing (the transformation can produce irreducible control flow, so
// the output is a goto-style listing rather than structured source)
// followed by the transformation statistics.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"reclose/internal/cfg"
	"reclose/internal/codegen"
	"reclose/internal/core"
	"reclose/internal/dataflow"
)

// options are the command's flags.
type options struct {
	dumpCFG, dumpAnalysis, statsOnly, quiet, dot, emit, partition bool
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain runs the command with the given arguments and returns the
// process exit code: 0 on success or -h, 1 on error, 2 on bad usage.
func realMain(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("reclose", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.BoolVar(&o.dumpCFG, "dump-cfg", false, "print the control-flow graphs of the open program and exit")
	fs.BoolVar(&o.dumpAnalysis, "dump-analysis", false, "print the per-node V_I analysis and exit")
	fs.BoolVar(&o.statsOnly, "stats", false, "print only the transformation statistics")
	fs.BoolVar(&o.quiet, "q", false, "suppress the closed-program listing")
	fs.BoolVar(&o.dot, "dot", false, "emit Graphviz DOT instead of the plain listing")
	fs.BoolVar(&o.emit, "emit", false, "emit the closed program as re-parseable MiniC source (trampoline encoding)")
	fs.BoolVar(&o.partition, "partition", false, "partition comparison-only env inputs (S7 extension) before closing")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: reclose [flags] file.mc (use - for stdin)\n")
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
	if err := run(fs.Arg(0), o, stdout); err != nil {
		fmt.Fprintf(stderr, "reclose: %v\n", err)
		return 1
	}
	return 0
}

func run(path string, o options, w io.Writer) error {
	src, err := readSource(path)
	if err != nil {
		return err
	}

	unit, err := core.CompileSource(string(src))
	if err != nil {
		return err
	}

	if o.dumpCFG {
		if o.dot {
			fmt.Fprint(w, unit.Dot())
		} else {
			fmt.Fprint(w, unit.String())
		}
		return nil
	}
	if o.dumpAnalysis {
		res := dataflow.Analyze(unit)
		for _, name := range unit.Order {
			fmt.Fprint(w, res.Proc(name).String())
		}
		printInterface(w, res)
		return nil
	}

	var closed *cfg.Unit
	var st *core.Stats
	if o.partition {
		var pst *core.PartitionStats
		closed, st, pst, err = core.ClosePartitioned(unit)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "partitioning: %s\n", pst)
	} else {
		closed, st, err = core.Close(unit)
		if err != nil {
			return err
		}
	}
	if !o.statsOnly && !o.quiet {
		switch {
		case o.emit:
			src, err := codegen.Emit(closed)
			if err != nil {
				return err
			}
			fmt.Fprint(w, src)
		case o.dot:
			fmt.Fprint(w, closed.Dot())
		default:
			fmt.Fprint(w, closedHeader(closed))
			fmt.Fprint(w, closed.String())
		}
	}
	fmt.Fprintf(w, "closing: %s\n", st)
	return nil
}

func readSource(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

func closedHeader(u *cfg.Unit) string {
	out := "// closed program (CFG listing)\n// objects:\n"
	for _, o := range u.Objects {
		suffix := ""
		if o.EnvFacing {
			suffix = " (env-facing stub)"
		}
		out += fmt.Sprintf("//   %s %s = %d%s\n", o.Kind, o.Name, o.Arg, suffix)
	}
	out += "// processes:\n"
	for i, p := range u.Processes {
		out += fmt.Sprintf("//   P%d: %s\n", i, p)
	}
	return out
}

// printInterface prints the effective environment interface in a fixed
// order: parameters by index, objects by name.
func printInterface(w io.Writer, res *dataflow.Result) {
	fmt.Fprintln(w, "effective environment interface:")
	for _, name := range res.Unit.Order {
		idx := res.EnvParams[name]
		if len(idx) == 0 {
			continue
		}
		g := res.Unit.Procs[name]
		var params []string
		for i := range g.Params {
			if idx[i] {
				params = append(params, g.Params[i])
			}
		}
		fmt.Fprintf(w, "  %s: env params %v\n", name, params)
	}
	var tainted []string
	for o := range res.TaintedObjs {
		tainted = append(tainted, o)
	}
	sort.Strings(tainted)
	if len(tainted) > 0 {
		fmt.Fprintf(w, "  objects carrying env data: %v\n", tainted)
	}
}
