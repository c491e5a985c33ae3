package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
)

func TestCLIList(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	s := out.String()
	for _, id := range []string{"E1", "E5", "E10", "A6"} {
		if !strings.Contains(s, id) {
			t.Fatalf("list output missing %s:\n%s", id, s)
		}
	}
}

func TestCLISingleExperiment(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-experiment", "e6", "-quick"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "E6") || !strings.Contains(out.String(), "completed in") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
}

func TestCLIUnknownExperiment(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-experiment", "E99"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown experiment") {
		t.Fatalf("stderr: %s", errOut.String())
	}
}

func TestCLINoArgs(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(nil, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2 (usage)", code)
	}
}

func TestCLIBadFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-nope"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestCLIBenchWritesReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_logp.json")
	var out, errOut bytes.Buffer
	code := run([]string{"-bench", "-quick", "-experiment", "E6", "-benchout", path}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	var rep struct {
		Quick   bool `json:"quick"`
		Results []struct {
			ID           string  `json:"id"`
			WallNanos    int64   `json:"wallNanos"`
			SimEvents    int64   `json:"simEvents"`
			EventsPerSec float64 `json:"eventsPerSec"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, data)
	}
	if !rep.Quick || len(rep.Results) != 1 || rep.Results[0].ID != "E6" {
		t.Fatalf("unexpected report: %+v", rep)
	}
	r := rep.Results[0]
	if r.WallNanos <= 0 || r.SimEvents <= 0 || r.EventsPerSec <= 0 {
		t.Fatalf("benchmark measurements not populated: %+v", r)
	}
	if !strings.Contains(out.String(), "events/sec") {
		t.Fatalf("summary table missing from output:\n%s", out.String())
	}
}

// TestCLIBenchQuickScaleRowUsesRunProcs pins a quick scale row to the
// processor count its run used: -quick runs E14.p1m at p = 10^5, so its
// row must report 10^5 processors and divide its bytes by 10^5.
func TestCLIBenchQuickScaleRowUsesRunProcs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_logp.json")
	var out, errOut bytes.Buffer
	code := run([]string{"-bench", "-quick", "-experiment", "E14.p1m", "-benchout", path}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	var rep struct {
		Results []struct {
			ID           string  `json:"id"`
			AllocBytes   uint64  `json:"allocBytes"`
			Procs        int     `json:"procs"`
			BytesPerProc float64 `json:"bytesPerProc"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, data)
	}
	if len(rep.Results) != 1 {
		t.Fatalf("unexpected report: %+v", rep)
	}
	r := rep.Results[0]
	if r.ID != "E14.p1m" || r.Procs != 100_000 || r.BytesPerProc != float64(r.AllocBytes)/100_000 {
		t.Fatalf("quick E14.p1m row %+v, want procs 100000 and bytesPerProc allocBytes/100000", r)
	}
}

// TestCLIScaleQuickSelection pins -scale -quick to the entries -quick
// leaves at their registered size: E14–E16 at p = 10^4 and 10^5, and
// E17 once, at p = 1024. Without -quick every entry runs.
func TestCLIScaleQuickSelection(t *testing.T) {
	got := scaleIDs(bench.Config{Quick: true})
	want := []string{"E14.p10k", "E15.p10k", "E16.p10k", "E14.p100k", "E15.p100k", "E16.p100k", "E17.p1k"}
	if !slices.Equal(got, want) {
		t.Fatalf("-scale -quick selects %v, want %v", got, want)
	}
	if n, all := len(scaleIDs(bench.Config{})), len(bench.Scale()); n != all {
		t.Fatalf("-scale selects %d entries, want all %d", n, all)
	}
}

func TestCLIBenchUnknownExperiment(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-bench", "-experiment", "E99"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestCLIHelpExitsZero(t *testing.T) {
	// -h is a request for usage, not a parse error: exit 0, usage on
	// the flag set's output.
	for _, arg := range []string{"-h", "--help"} {
		var out, errOut bytes.Buffer
		if code := run([]string{arg}, &out, &errOut); code != 0 {
			t.Fatalf("%s: exit %d, want 0", arg, code)
		}
		if !strings.Contains(errOut.String(), "-experiment") {
			t.Fatalf("%s: usage text missing from output:\n%s", arg, errOut.String())
		}
	}
}

func TestCLIAuditWritesReportAndTrace(t *testing.T) {
	dir := t.TempDir()
	auditPath := filepath.Join(dir, "audit.json")
	tracePath := filepath.Join(dir, "trace.jsonl")
	var out, errOut bytes.Buffer
	code := run([]string{"-audit", "-quick", "-experiment", "e3",
		"-auditout", auditPath, "-trace", tracePath}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "AUDIT") || !strings.Contains(out.String(), "all invariants held") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}

	data, err := os.ReadFile(auditPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		TotalRuns       int64 `json:"totalRuns"`
		TotalViolations int64 `json:"totalViolations"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.TotalRuns == 0 || rep.TotalViolations != 0 {
		t.Fatalf("unexpected report: %+v", rep)
	}

	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(trace)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("empty trace file")
	}
	var ev struct {
		T    int64  `json:"t"`
		Kind string `json:"kind"`
		Seq  int64  `json:"seq"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("first trace line is not JSON: %v\n%s", err, lines[0])
	}
	if ev.Kind != "submit" {
		t.Fatalf("first event kind %q, want submit", ev.Kind)
	}
}

func TestCLIAuditUnknownExperiment(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-audit", "-experiment", "E99"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestCLIAuditFlagsWithoutAuditError(t *testing.T) {
	// -auditout and -trace are silently dead without -audit; that must
	// be a usage error, not ignored output the user asked for.
	for _, args := range [][]string{
		{"-trace", "t.jsonl", "-experiment", "E6", "-quick"},
		{"-auditout", "a.json", "-experiment", "E6", "-quick"},
		{"-trace", "t.jsonl", "-bench", "-experiment", "E6", "-quick"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Fatalf("%v: exit %d, want 2", args, code)
		}
		if !strings.Contains(errOut.String(), "without -audit") {
			t.Fatalf("%v: stderr missing diagnosis: %s", args, errOut.String())
		}
		if !strings.Contains(errOut.String(), "-experiment") {
			t.Fatalf("%v: usage text not printed: %s", args, errOut.String())
		}
	}
	// With -audit both flags are legitimate (covered in
	// TestCLIAuditWritesReportAndTrace); the default -auditout value
	// alone must not trip the check.
	var out, errOut bytes.Buffer
	if code := run([]string{"-experiment", "E6", "-quick"}, &out, &errOut); code != 0 {
		t.Fatalf("plain experiment run broken: exit %d: %s", code, errOut.String())
	}
}

func TestCLISameSeedOutputIdentical(t *testing.T) {
	// Per-seed determinism: two runs of one experiment at the same seed
	// print byte-identical tables.
	var first, second, errOut bytes.Buffer
	for _, out := range []*bytes.Buffer{&first, &second} {
		if code := run([]string{"-experiment", "e3", "-quick", "-seed", "7"}, out, &errOut); code != 0 {
			t.Fatalf("exit %d: %s", code, errOut.String())
		}
	}
	strip := func(s string) string {
		// Drop the wall-clock completion line, which legitimately varies.
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if strings.Contains(line, "completed in") {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	if strip(first.String()) != strip(second.String()) {
		t.Fatalf("same-seed runs of E3 differ:\nfirst:\n%s\nsecond:\n%s", first.String(), second.String())
	}
}

func TestCLIBenchSubsetMergePreservesRows(t *testing.T) {
	// A -bench run over a subset of the registry (here a single
	// -experiment) must extend the existing report, not replace it:
	// re-benchmarking E3 used to discard the E6 row wholesale. Each kept
	// row also keeps its own repetition count.
	path := filepath.Join(t.TempDir(), "bench.json")
	var out, errOut bytes.Buffer
	if code := run([]string{"-bench", "-quick", "-experiment", "E6", "-benchcount", "2", "-benchout", path}, &out, &errOut); code != 0 {
		t.Fatalf("seeding run: exit %d: %s", code, errOut.String())
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-bench", "-quick", "-experiment", "E3", "-benchout", path}, &out, &errOut); code != 0 {
		t.Fatalf("subset run: exit %d: %s", code, errOut.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		TotalWallNanos int64 `json:"totalWallNanos"`
		Results        []struct {
			ID        string `json:"id"`
			WallNanos int64  `json:"wallNanos"`
			Quick     bool   `json:"quick"`
			Count     int    `json:"count"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("merged report is not valid JSON: %v\n%s", err, data)
	}
	ids := map[string]bool{}
	var sum int64
	for _, r := range rep.Results {
		ids[r.ID] = true
		sum += r.WallNanos
		if want := map[string]int{"E6": 2, "E3": 1}[r.ID]; !r.Quick || r.Count != want {
			t.Errorf("%s row provenance quick=%v count=%d, want quick=true count=%d", r.ID, r.Quick, r.Count, want)
		}
	}
	if !ids["E6"] || !ids["E3"] {
		t.Fatalf("subset -bench run clobbered the report: rows %v, want E6 and E3", ids)
	}
	if rep.TotalWallNanos != sum {
		t.Fatalf("totalWallNanos %d not recomputed over merged rows (sum %d)", rep.TotalWallNanos, sum)
	}
}

func TestCLIBenchCorruptBaseReportFails(t *testing.T) {
	// An unreadable existing -benchout must be a hard error before any
	// benchmarking starts, not rows silently discarded after the run.
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-bench", "-quick", "-experiment", "E6", "-benchout", path}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "unreadable") {
		t.Fatalf("stderr missing diagnosis: %s", errOut.String())
	}
	// The corrupt file must be left untouched for the user to inspect.
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "{not json" {
		t.Fatalf("corrupt base was modified: %q, %v", data, err)
	}
}

func TestCLIModeFlagMisuse(t *testing.T) {
	// Flags that only mean something under a mode flag are usage errors
	// (exit 2) without it, mirroring the -audit flag discipline.
	cases := []struct {
		args []string
		diag string
	}{
		{[]string{"-benchout", "b.json", "-experiment", "E6", "-quick"}, "without -bench"},
		{[]string{"-benchcount", "3", "-experiment", "E6", "-quick"}, "without -bench"},
		{[]string{"-cpuprofile", "cpu.pprof", "-experiment", "E6", "-quick"}, "without -bench"},
		{[]string{"-memprofile", "mem.pprof", "-experiment", "E6", "-quick"}, "without -bench"},
		{[]string{"-threshold", "0.5", "-experiment", "E6", "-quick"}, "without -benchdiff"},
		{[]string{"-threshold", "0.5", "-bench", "-experiment", "E6", "-quick"}, "without -benchdiff"},
	}
	for _, tc := range cases {
		var out, errOut bytes.Buffer
		if code := run(tc.args, &out, &errOut); code != 2 {
			t.Fatalf("%v: exit %d, want 2: %s", tc.args, code, errOut.String())
		}
		if !strings.Contains(errOut.String(), tc.diag) {
			t.Fatalf("%v: stderr missing %q: %s", tc.args, tc.diag, errOut.String())
		}
	}
	// The flags are legitimate under their mode; default values alone
	// must never trip the check.
	path := filepath.Join(t.TempDir(), "bench.json")
	var out, errOut bytes.Buffer
	if code := run([]string{"-bench", "-quick", "-experiment", "E6", "-benchout", path, "-benchcount", "2"}, &out, &errOut); code != 0 {
		t.Fatalf("bench flags under -bench broken: exit %d: %s", code, errOut.String())
	}
}
