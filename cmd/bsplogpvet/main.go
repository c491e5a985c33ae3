// Command bsplogpvet runs the repository's custom static-analysis suite
// over the given package patterns:
//
//	go run ./cmd/bsplogpvet ./...
//
// The suite mechanically enforces the simulators' determinism and
// model-discipline invariants (see internal/analysis). Output is one
// finding per line, vet-style; the exit status is 0 when the tree is
// clean, 1 when there are findings, and 2 when the packages cannot be
// loaded — so CI can hard-fail on findings while a broken build stays
// distinguishable in the logs.
//
// Intentional exceptions are annotated in the source as
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// on the offending line or alone on the line above it. A directive
// without a reason, or naming an unknown analyzer, is itself a finding.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/kit"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bsplogpvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: bsplogpvet [-list] packages...\n\n")
		fmt.Fprintf(stderr, "Static analysis of the BSP/LogP simulators' determinism and\nmodel-discipline invariants. Exit status: 0 clean, 1 findings, 2 load error.\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := kit.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "bsplogpvet: %v\n", err)
		return 2
	}
	// allocdiscipline correlates the compiler's escape verdicts with the
	// hot set, so the load is followed by a -gcflags=-m capture (cheap:
	// the build cache replays the diagnostics).
	if err := kit.AttachEscapes(".", pkgs, patterns...); err != nil {
		fmt.Fprintf(stderr, "bsplogpvet: %v\n", err)
		return 2
	}
	diags := kit.RunAnalyzers(pkgs, analyzers)
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
