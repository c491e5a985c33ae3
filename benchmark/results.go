package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
)

// provenance says which build, machine and settings produced a results
// file.
type provenance struct {
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	GoVersion  string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	MinOps     int     `json:"min_ops"`
	DigestOps  int     `json:"digest_ops"`
	SetupReps  int     `json:"setup_reps"`
}

// results is the -out file: provenance, then one record per run.
type results struct {
	Provenance provenance  `json:"provenance"`
	Runs       []runRecord `json:"runs"`
}

func newProvenance(cfg config) provenance {
	p := provenance{
		Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: gomaxprocs, CPU: cpuModel(), Seed: cfg.seed, Seconds: cfg.seconds,
		MinOps: cfg.minOps, DigestOps: digestOps, SetupReps: setupReps,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				p.Dirty = s.Value == "true"
			}
		}
	}
	return p
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func writeResults(path string, cfg config, runs []runRecord) error {
	b, err := json.Marshal(results{newProvenance(cfg), runs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (results, error) {
	var r results
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareMain implements -compare A.json... -- B.json...: the parent's
// runs before "--", the change's after, paired in file and run order.
func compareMain(args []string, stdout, stderr io.Writer) int {
	sep := slices.Index(args, "--")
	if sep < 1 || sep == len(args)-1 {
		fmt.Fprintln(stderr, "benchmark: usage: -compare A.json... -- B.json...")
		return 2
	}
	var sides [2][]runRecord
	for k, files := range [][]string{args[:sep], args[sep+1:]} {
		for _, f := range files {
			r, err := readResults(f)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
			sides[k] = append(sides[k], r.Runs...)
		}
	}
	rows := compareRuns(sides[0], sides[1])
	fmt.Fprintf(stdout, "%-22s %-12s %5s %12s %12s %12s %12s %12s %12s %6s  %s\n",
		"workload", "metric", "pairs", "A-q1", "A-median", "A-q3", "B-q1", "B-median", "B-q3", "B-won", "verdict")
	code := 0
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-22s %-12s %5d %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %6.2f  %s\n",
			r.workload, r.metric, r.pairs, r.a[0], r.a[1], r.a[2], r.b[0], r.b[1], r.b[2], r.won, r.verdict)
		if r.verdict == "worse" {
			code = 1
		}
	}
	return code
}

type compareRow struct {
	workload, metric string
	pairs            int
	a, b             [3]float64 // Q1, median, Q3
	won              float64    // share of pairs the change won
	verdict          string
}

// compareRuns applies the paired-run rule to every (workload,
// end-to-end metric) present on both sides.
func compareRuns(a, b []runRecord) []compareRow {
	var rows []compareRow
	for _, w := range workloads {
		for _, m := range endToEnd {
			va, vb := values(a, w.name, m.name), values(b, w.name, m.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			r := compareRow{workload: w.name, metric: m.name, pairs: min(len(va), len(vb))}
			r.a[0], r.a[1], r.a[2] = quartiles(va)
			r.b[0], r.b[1], r.b[2] = quartiles(vb)
			r.won, r.verdict = verdict(va, vb, m.higher, m.bound)
			rows = append(rows, r)
		}
	}
	return rows
}

func values(runs []runRecord, workload, name string) []float64 {
	var v []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Trace {
			v = append(v, m.Value)
		}
	}
	return v
}

// verdict judges the change's runs b against the parent's runs a,
// paired by index:
//   - improved: the change wins at least nine tenths of the pairs (ties
//     count for neither) and the medians differ, in its favour, by more
//     than the parent's own quartile spread;
//   - unresolved: either side's quartile spread, as a share of its
//     median, is wider than the bound, unless every change run beats
//     every parent run (then no-worse);
//   - worse: the change's median is worse than the parent's by more
//     than the bound, as a share of the parent's median;
//   - no-worse otherwise.
func verdict(a, b []float64, higher bool, bound float64) (won float64, v string) {
	better := func(x, y float64) bool { return (higher && x > y) || (!higher && x < y) }
	n := min(len(a), len(b))
	wins := 0
	for i := 0; i < n; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	won = float64(wins) / float64(n)
	q1a, meda, q3a := quartiles(a)
	q1b, medb, q3b := quartiles(b)
	worsening := (medb - meda) / meda
	if higher {
		worsening = -worsening
	}
	spread := math.Max((q3a-q1a)/meda, (q3b-q1b)/medb)
	switch {
	case wins*10 >= 9*n && better(medb, meda) && math.Abs(medb-meda) > q3a-q1a:
		return won, "improved"
	case spread > bound:
		if allBetter(b, a, better) {
			return won, "no-worse"
		}
		return won, "unresolved"
	case worsening > bound:
		return won, "worse"
	default:
		return won, "no-worse"
	}
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(b, a []float64, better func(x, y float64) bool) bool {
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}
