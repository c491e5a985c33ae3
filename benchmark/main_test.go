package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no-such-workload"},
		{"-trace", "2"},
		{"-seconds", "-1"},
		{"stray"},
		{"-compare", "a.json"},
		{"-compare", "--", "b.json"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%q) = %d, want 2 (stderr %q)", args, code, errb.String())
		}
	}
	if code := run([]string{"-h"}, &bytes.Buffer{}, &bytes.Buffer{}); code != 0 {
		t.Errorf("-h exits %d, want 0", code)
	}
}

// Two results files, the second 30% slower on op_p50_ref: -compare
// reports it worse and exits 1.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		var runs []runRecord
		for i := 0; i < 10; i++ {
			runs = append(runs, runRecord{Workload: "route-script-p8k", Metrics: map[string]metric{
				"op_p50_ref": {p50 + float64(i%3)*0.01, "ref"},
			}})
		}
		path := filepath.Join(dir, name)
		if err := writeResults(path, config{}, runs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b := write("a.json", 14), write("b.json", 18.2)
	var out bytes.Buffer
	if code := run([]string{"-compare", a, "--", b}, &out, &bytes.Buffer{}); code != 1 {
		t.Errorf("-compare exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "worse") || !strings.Contains(out.String(), "route-script-p8k") {
		t.Errorf("-compare output lacks the worse verdict:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"-compare", a, "--", a}, &out, &bytes.Buffer{}); code != 0 {
		t.Errorf("-compare of a file with itself exits %d, want 0\n%s", code, out.String())
	}
}
