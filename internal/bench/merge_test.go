package bench

import (
	"testing"
)

func mergeIDs(r *BenchReport) []string {
	ids := make([]string, len(r.Results))
	for i, b := range r.Results {
		ids[i] = b.ID
	}
	return ids
}

func eqStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestMergeReportsReplacesAndAppends(t *testing.T) {
	base := &BenchReport{
		Count: 1,
		Results: []BenchResult{
			{ID: "E1", WallNanos: 10},
			{ID: "E2", WallNanos: 20},
			{ID: "E3", WallNanos: 30},
		},
	}
	next := &BenchReport{
		Count: 5,
		Results: []BenchResult{
			{ID: "E2", WallNanos: 200},
			{ID: "E14.p1m", WallNanos: 400},
		},
	}
	m := MergeReports(base, next)
	if got, want := mergeIDs(m), []string{"E1", "E2", "E3", "E14.p1m"}; !eqStrings(got, want) {
		t.Fatalf("merged IDs %v, want %v", got, want)
	}
	if m.Results[1].WallNanos != 200 {
		t.Fatalf("E2 not replaced: wall %d", m.Results[1].WallNanos)
	}
	if m.Count != 5 {
		t.Fatalf("metadata must come from next: count %d", m.Count)
	}
	if want := int64(10 + 200 + 30 + 400); m.TotalWallNanos != want {
		t.Fatalf("TotalWallNanos %d, want recomputed %d", m.TotalWallNanos, want)
	}
}

func TestMergeReportsEmptyBase(t *testing.T) {
	next := &BenchReport{Results: []BenchResult{{ID: "E6", WallNanos: 7}}}
	m := MergeReports(&BenchReport{}, next)
	if got, want := mergeIDs(m), []string{"E6"}; !eqStrings(got, want) {
		t.Fatalf("merged IDs %v, want %v", got, want)
	}
	if m.TotalWallNanos != 7 {
		t.Fatalf("TotalWallNanos %d, want 7", m.TotalWallNanos)
	}
	// And the degenerate empty-next case keeps base untouched.
	m = MergeReports(next, &BenchReport{})
	if got, want := mergeIDs(m), []string{"E6"}; !eqStrings(got, want) {
		t.Fatalf("empty next: merged IDs %v, want %v", got, want)
	}
}

func TestMergeReportsDuplicateIDsInNext(t *testing.T) {
	// An ID duplicated inside next must land in the merge exactly once
	// (its last occurrence), for IDs present in base and for new ones.
	base := &BenchReport{Results: []BenchResult{{ID: "E1", WallNanos: 1}}}
	next := &BenchReport{Results: []BenchResult{
		{ID: "E1", WallNanos: 10},
		{ID: "E9", WallNanos: 90},
		{ID: "E1", WallNanos: 11},
		{ID: "E9", WallNanos: 91},
	}}
	m := MergeReports(base, next)
	if got, want := mergeIDs(m), []string{"E1", "E9"}; !eqStrings(got, want) {
		t.Fatalf("merged IDs %v, want %v", got, want)
	}
	if m.Results[0].WallNanos != 11 || m.Results[1].WallNanos != 91 {
		t.Fatalf("duplicates must resolve to the last occurrence: %+v", m.Results)
	}
	if want := int64(11 + 91); m.TotalWallNanos != want {
		t.Fatalf("TotalWallNanos %d, want %d", m.TotalWallNanos, want)
	}
}

func TestMergeReportsTotalWallRecomputed(t *testing.T) {
	// Stale totals in either input must not leak through: the merged
	// total is the sum over merged rows, nothing else.
	base := &BenchReport{TotalWallNanos: 999_999, Results: []BenchResult{{ID: "A", WallNanos: 5}}}
	next := &BenchReport{TotalWallNanos: 123_456, Results: []BenchResult{{ID: "B", WallNanos: 6}}}
	if m := MergeReports(base, next); m.TotalWallNanos != 11 {
		t.Fatalf("TotalWallNanos %d, want 11", m.TotalWallNanos)
	}
}

// TestMergeReportsRowProvenance pins per-row provenance across a merge:
// a quick, median-of-5 base extended by a full, single-repetition run
// must keep every row's own Quick and Count, whatever the merged header
// says.
func TestMergeReportsRowProvenance(t *testing.T) {
	base := &BenchReport{Quick: true, Count: 5, Results: []BenchResult{
		{ID: "E1", Quick: true, Count: 5},
		{ID: "E3", Quick: true, Count: 5},
		{ID: "E14.p1m", Quick: false, Count: 2},
	}}
	next := &BenchReport{Quick: false, Count: 1, Results: []BenchResult{
		{ID: "E14.p1m", Quick: false, Count: 1},
		{ID: "E17.p2k", Quick: false, Count: 1},
	}}
	m := MergeReports(base, next)
	if m.Quick || m.Count != 1 {
		t.Fatalf("header quick=%v count=%d, want next's false/1", m.Quick, m.Count)
	}
	for _, tc := range []struct {
		id    string
		quick bool
		count int
	}{
		{"E1", true, 5},
		{"E3", true, 5},
		{"E14.p1m", false, 1},
		{"E17.p2k", false, 1},
	} {
		var got *BenchResult
		for i := range m.Results {
			if m.Results[i].ID == tc.id {
				got = &m.Results[i]
			}
		}
		if got == nil {
			t.Fatalf("%s missing from merge %v", tc.id, mergeIDs(m))
		}
		if got.Quick != tc.quick || got.Count != tc.count {
			t.Errorf("%s: quick=%v count=%d, want quick=%v count=%d", tc.id, got.Quick, got.Count, tc.quick, tc.count)
		}
	}
}
