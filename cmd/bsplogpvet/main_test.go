package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// chdir moves the test into dir and back at cleanup.
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
}

// TestSmokeWholeRepo is the acceptance gate: the multichecker must run
// over every package of the repository without crashing and report a
// clean tree.
func TestSmokeWholeRepo(t *testing.T) {
	chdir(t, filepath.Join("..", ".."))
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("bsplogpvet ./... = exit %d, want 0\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean tree printed findings:\n%s", stdout.String())
	}
}

// TestList checks -list names every analyzer of the suite.
func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	for _, name := range []string{"determinism", "procshare", "apidiscipline", "costcharge", "allocdiscipline", "hotloop"} {
		if !bytes.Contains(stdout.Bytes(), []byte(name)) {
			t.Errorf("-list output is missing analyzer %q:\n%s", name, stdout.String())
		}
	}
}

// TestFindingsExitOne builds a throwaway module whose package path
// lands in the determinism scope, plants a wall-clock read, and checks
// the full contract end to end: exit 1 with one vet-style finding line,
// then exit 0 once the line carries an annotated //lint:ignore exception.
func TestFindingsExitOne(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		full := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module repro\n\ngo 1.23\n")
	write("examples/clockly/main.go", `package main

import (
	"fmt"
	"time"
)

func main() {
	fmt.Println(time.Now())
}
`)
	chdir(t, dir)

	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	want := filepath.Join("examples", "clockly", "main.go") + ":9:"
	if out := stdout.String(); strings.Count(out, "\n") != 1 || !strings.Contains(out, want) || !strings.Contains(out, "[determinism]") {
		t.Fatalf("findings:\n%s\nwant one [determinism] line on %s", out, want)
	}

	// An annotated exception must silence exactly this finding — and
	// deleting the annotation later makes bsplogpvet report it again.
	write("examples/clockly/main.go", `package main

import (
	"fmt"
	"time"
)

func main() {
	//lint:ignore determinism demo exception with a reason
	fmt.Println(time.Now())
}
`)
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("annotated exception: exit %d, want 0\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
}

// TestLoadErrorExitTwo keeps "cannot load" distinguishable from "has
// findings" for CI logs.
func TestLoadErrorExitTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./no/such/package"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2\nstderr:\n%s", code, stderr.String())
	}
}
