package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/logp"
)

// TestAuditedQuickSuiteClean is the acceptance gate of the audited
// suite: every experiment, run quick under the streaming auditor with
// RequireAcquired on, must hold every LogP model invariant.
func TestAuditedQuickSuiteClean(t *testing.T) {
	rep, err := RunAudit(Config{Quick: true, Seed: 1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range rep.Results {
		if a.Summary.ViolationCount != 0 {
			t.Errorf("%s: %d violations: %v", a.ID, a.Summary.ViolationCount, a.Summary.Violations)
		}
	}
	if rep.TotalRuns == 0 {
		t.Fatal("audit hook observed no machine runs")
	}
}

// TestAuditReportMatchesCheckedIn pins the whole audited quick suite:
// the report RunAudit builds must equal the checked-in AUDIT_logp.json
// (make audit-report's output) byte for byte, apart from the fields
// that name the toolchain and the host.
func TestAuditReportMatchesCheckedIn(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "AUDIT_logp.json"))
	if err != nil {
		t.Fatal(err)
	}
	var host struct {
		GoVersion string `json:"goVersion"`
		GOOS      string `json:"goos"`
		GOARCH    string `json:"goarch"`
	}
	if err := json.Unmarshal(want, &host); err != nil {
		t.Fatal(err)
	}
	rep, err := RunAudit(Config{Quick: true, Seed: 1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep.GoVersion, rep.GOOS, rep.GOARCH = host.GoVersion, host.GOOS, host.GOARCH
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(string(got)+"\n", "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		if i >= len(gotLines) || i >= len(wantLines) || gotLines[i] != wantLines[i] {
			t.Fatalf("audited quick suite diverged from AUDIT_logp.json at line %d (make audit-report re-records it if intentional):\n got %q\nwant %q",
				i+1, lineAt(gotLines, i), lineAt(wantLines, i))
		}
	}
}

// lineAt returns line i of lines, or a marker past the end.
func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end of report>"
}

const goldenAuditFile = "testdata/golden_E3_audit.json"

// TestGoldenAuditedE3Metrics pins the auditor's merged metrics for the
// E3 quick configuration: the run is deterministic with a fixed seed,
// so occupancy high-water marks, stall counts, and the latency
// histogram must be bit-stable. Regenerate with -update after an
// intentional engine-semantics change.
func TestGoldenAuditedE3Metrics(t *testing.T) {
	collect := func() logp.AuditSummary {
		rep, err := RunAudit(Config{Quick: true, Seed: 1}, []string{"E3"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Results[0].Summary
	}
	got := collect()
	if got.ViolationCount != 0 {
		t.Fatalf("E3 quick violated invariants: %v", got.Violations)
	}
	if again := collect(); !reflect.DeepEqual(got, again) {
		t.Fatalf("same seed produced different audit summaries:\n%+v\n%+v", got, again)
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.FromSlash(goldenAuditFile), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(filepath.FromSlash(goldenAuditFile))
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	var want logp.AuditSummary
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		gotJSON, _ := json.MarshalIndent(got, "", "  ")
		t.Fatalf("audited E3 metrics diverged from golden (run with -update if intentional):\n--- got ---\n%s", gotJSON)
	}
}
