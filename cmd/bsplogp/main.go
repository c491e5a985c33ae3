// Command bsplogp regenerates the quantitative results of "BSP vs
// LogP" (Bilardi, Herley, Pietracaprina, Pucci, Spirakis; SPAA 1996 /
// Algorithmica 1999) on the executable BSP and LogP machines in this
// repository.
//
// Usage:
//
//	bsplogp -list [-scale]
//	bsplogp -experiment E3 [-quick] [-seed 1]
//	bsplogp -all [-quick]
//	bsplogp -scale [-quick] [-bench]
//	bsplogp -bench [-experiment E3] [-quick] [-benchcount 5] [-benchout BENCH_logp.json] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	bsplogp -benchdiff old.json new.json [-threshold 0.2]
//	bsplogp -audit [-experiment E3] [-quick] [-auditout AUDIT_logp.json] [-trace trace.jsonl]
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/logp"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable CLI body; it returns the process exit code.
func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("bsplogp", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		id         = fs.String("experiment", "", "experiment id to run (E1..E13, A1..A6, or a scale id like E14.p1m); empty with -all runs everything")
		all        = fs.Bool("all", false, "run every experiment")
		list       = fs.Bool("list", false, "list experiments and exit")
		quick      = fs.Bool("quick", false, "shrink processor counts and trials")
		scale      = fs.Bool("scale", false, "select the large-p scale experiments (E14/E15/E16 at p=10^4..10^6, E17 at p=1024/2048) instead of the regular suite; with -quick only the entries at p <= 10^5 (E17 at p=1024) run")
		seed       = fs.Uint64("seed", 1, "random seed")
		doBench    = fs.Bool("bench", false, "benchmark experiments (all, or the one given by -experiment) and write a JSON report")
		benchOut   = fs.String("benchout", "BENCH_logp.json", "path of the JSON report written by -bench")
		benchCount = fs.Int("benchcount", 1, "with -bench: repetitions per experiment; the report carries the median wall time")
		cpuProfile = fs.String("cpuprofile", "", "with -bench: write a CPU profile of the benchmark runs to this file")
		memProfile = fs.String("memprofile", "", "with -bench: write an allocation profile taken after the benchmark runs to this file")
		benchDiff  = fs.Bool("benchdiff", false, "compare two -bench JSON reports given as positional args (old.json new.json); nonzero exit if any experiment regresses past -threshold")
		threshold  = fs.Float64("threshold", 0.2, "with -benchdiff: tolerated fractional wall-time regression; negative disables the nonzero exit (informational)")
		doAudit    = fs.Bool("audit", false, "run experiments (all, or the one given by -experiment) under the streaming LogP invariant auditor; nonzero exit on any violation")
		auditOut   = fs.String("auditout", "AUDIT_logp.json", "path of the JSON report written by -audit")
		traceOut   = fs.String("trace", "", "with -audit: also write every audited event to this JSONL file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// Flags that only mean something under a mode flag are usage errors
	// without it; silently ignoring them would discard output (or
	// profiles, or thresholds) the user asked for.
	needs := map[string]struct {
		on   bool
		mode string
	}{
		"auditout":   {*doAudit, "-audit"},
		"trace":      {*doAudit, "-audit"},
		"benchout":   {*doBench, "-bench"},
		"benchcount": {*doBench, "-bench"},
		"cpuprofile": {*doBench, "-bench"},
		"memprofile": {*doBench, "-bench"},
		"threshold":  {*benchDiff, "-benchdiff"},
	}
	misused := false
	fs.Visit(func(f *flag.Flag) {
		if dep, ok := needs[f.Name]; ok && !dep.on {
			fmt.Fprintf(errOut, "bsplogp: -%s has no effect without %s\n", f.Name, dep.mode)
			misused = true
		}
	})
	if misused {
		fs.Usage()
		return 2
	}

	if *list {
		exps := bench.All()
		if *scale {
			exps = bench.Scale()
		}
		for _, e := range exps {
			fmt.Fprintf(out, "%-9s %s\n", e.ID, e.Name)
		}
		return 0
	}

	cfg := bench.Config{Quick: *quick, Seed: *seed}

	// The p=10^6 experiments keep ~2 GB of guest state live; the default
	// GC target (100% headroom) would push peak RSS past the scale
	// suite's 4 GB budget, so trade GC frequency for footprint. The
	// simulation is unaffected — GC timing never reaches the engines.
	if *scale {
		debug.SetGCPercent(50)
	}

	if *benchDiff {
		paths := fs.Args()
		if len(paths) != 2 {
			fmt.Fprintln(errOut, "bsplogp: -benchdiff needs exactly two positional args: old.json new.json")
			return 2
		}
		oldRep, err := bench.ReadJSON(paths[0])
		if err != nil {
			fmt.Fprintf(errOut, "bsplogp: %v\n", err)
			return 2
		}
		newRep, err := bench.ReadJSON(paths[1])
		if err != nil {
			fmt.Fprintf(errOut, "bsplogp: %v\n", err)
			return 2
		}
		d := bench.Diff(oldRep, newRep, *threshold)
		fmt.Fprintln(out, d.Render())
		if d.Regressed {
			fmt.Fprintf(errOut, "bsplogp: benchmark regression past threshold %.2f\n", *threshold)
			return 1
		}
		return 0
	}

	if *doAudit {
		var ids []string
		if *id != "" {
			ids = []string{*id}
		}
		var sink func(logp.Event)
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintf(errOut, "bsplogp: %v\n", err)
				return 1
			}
			w := bufio.NewWriter(f)
			var mu sync.Mutex // machines may run on concurrent goroutines
			sink = func(ev logp.Event) {
				mu.Lock()
				fmt.Fprintf(w, `{"t":%d,"kind":%q,"seq":%d,"src":%d,"dst":%d,"tag":%d,"payload":%d,"aux":%d}`+"\n",
					ev.Time, ev.Kind.String(), ev.Seq, ev.Msg.Src, ev.Msg.Dst, ev.Msg.Tag, ev.Msg.Payload, ev.Msg.Aux)
				mu.Unlock()
			}
			defer func() {
				w.Flush()
				f.Close()
			}()
		}
		rep, err := bench.RunAudit(cfg, ids, sink)
		if err != nil {
			fmt.Fprintf(errOut, "bsplogp: %v; use -list\n", err)
			return 2
		}
		fmt.Fprintln(out, rep.Render())
		if err := rep.WriteJSON(*auditOut); err != nil {
			fmt.Fprintf(errOut, "bsplogp: writing report: %v\n", err)
			return 1
		}
		fmt.Fprintf(out, "report written to %s\n", *auditOut)
		if *traceOut != "" {
			fmt.Fprintf(out, "trace written to %s\n", *traceOut)
		}
		if rep.TotalViolations > 0 {
			fmt.Fprintf(errOut, "bsplogp: %d invariant violations\n", rep.TotalViolations)
			return 1
		}
		return 0
	}

	if *doBench {
		var ids []string
		if *id != "" {
			ids = []string{*id}
		} else if *scale {
			ids = scaleIDs(cfg)
		}
		// Every -bench run covers a subset of the registry (a single
		// -experiment, the -scale suite, or the regular suite without
		// the scale rows), so an existing report is always extended,
		// never clobbered. Read it before the runs: a missing file is a
		// fresh report, but a corrupt one is an error now rather than
		// rows silently dropped after minutes of benchmarking.
		base, baseErr := bench.ReadJSON(*benchOut)
		if baseErr != nil {
			if !errors.Is(baseErr, os.ErrNotExist) {
				fmt.Fprintf(errOut, "bsplogp: existing report %s is unreadable: %v\n", *benchOut, baseErr)
				fmt.Fprintln(errOut, "bsplogp: move it aside (or fix it) so benchmark rows are not silently discarded")
				return 1
			}
			base = nil
		}
		if *cpuProfile != "" {
			f, err := os.Create(*cpuProfile)
			if err != nil {
				fmt.Fprintf(errOut, "bsplogp: %v\n", err)
				return 1
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				fmt.Fprintf(errOut, "bsplogp: starting CPU profile: %v\n", err)
				f.Close()
				return 1
			}
			defer func() {
				pprof.StopCPUProfile()
				f.Close()
			}()
		}
		rep, err := bench.RunBench(cfg, ids, *benchCount)
		if err != nil {
			fmt.Fprintf(errOut, "bsplogp: %v; use -list\n", err)
			return 2
		}
		if *memProfile != "" {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(errOut, "bsplogp: %v\n", err)
				return 1
			}
			runtime.GC() // flush allocation records so the profile covers the whole run
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(errOut, "bsplogp: writing heap profile: %v\n", err)
				f.Close()
				return 1
			}
			f.Close()
		}
		fmt.Fprintln(out, rep.Render())
		if base != nil {
			rep = bench.MergeReports(base, rep)
		}
		if err := rep.WriteJSON(*benchOut); err != nil {
			fmt.Fprintf(errOut, "bsplogp: writing report: %v\n", err)
			return 1
		}
		fmt.Fprintf(out, "report written to %s\n", *benchOut)
		return 0
	}

	runOne := func(e bench.Experiment) {
		start := time.Now()
		tab := e.Run(cfg)
		fmt.Fprintln(out, tab.Render())
		fmt.Fprintf(out, "(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	switch {
	case *all:
		for _, e := range bench.All() {
			runOne(e)
		}
	// -experiment before -scale, matching -bench: "-scale -experiment
	// E16.p1m" runs the one experiment (with the scale-mode GC tuning
	// above), not the whole suite.
	case *id != "":
		e, ok := bench.Lookup(*id)
		if !ok {
			fmt.Fprintf(errOut, "bsplogp: unknown experiment %q; use -list\n", *id)
			return 2
		}
		runOne(e)
	case *scale:
		for _, sid := range scaleIDs(cfg) {
			e, _ := bench.Lookup(sid)
			runOne(e)
		}
	default:
		fs.Usage()
		return 2
	}
	return 0
}

// scaleIDs is the scale registry's default selection: every entry, or
// under -quick only those -quick leaves at their registered processor
// count; a capped entry would rerun the table of a smaller one.
func scaleIDs(cfg bench.Config) []string {
	var ids []string
	for _, e := range bench.Scale() {
		if e.RunProcs(cfg) == e.Procs {
			ids = append(ids, e.ID)
		}
	}
	return ids
}
