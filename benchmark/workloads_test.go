package main

import (
	"errors"
	"hash/fnv"
	"io"
	"strings"
	"testing"
)

// tinyWorkloads are the five workloads at small p.
var tinyWorkloads = []workload{
	{name: "thm2", audit: true, seeded: true, build: func(seed uint64, env *opEnv) runner {
		return newThm2Routers(8, []int{1, 2}, seed)
	}},
	{name: "route", audit: true, build: func(seed uint64, env *opEnv) runner { return newRouteBarrier(64, env) }},
	{name: "randroute", audit: true, seeded: true, build: func(seed uint64, env *opEnv) runner {
		return newRandRoute(64, 4, seed)
	}},
	{name: "thm1", build: func(seed uint64, env *opEnv) runner { return newThm1Replay(64) }},
	{name: "netsim", seeded: true, build: func(seed uint64, env *opEnv) runner { return newNetsimGL(64, 1, seed, env) }},
}

// digestOf builds w and folds the outputs of its first n ops.
func digestOf(t *testing.T, w workload, seed uint64, n int) uint64 {
	t.Helper()
	env := &opEnv{}
	rs := &runState{w: w, r: w.build(seed, env), env: env, digest: fnv.New64a()}
	rs.ops(n, 0)
	if rs.failed != 0 {
		t.Fatalf("%s seed %d: %v", w.name, seed, rs.errs)
	}
	return rs.digest.Sum64()
}

func TestDigestsRepeatAndFollowTheSeed(t *testing.T) {
	for _, w := range tinyWorkloads {
		a, b := digestOf(t, w, 1, 2), digestOf(t, w, 1, 2)
		if a != b {
			t.Errorf("%s: digest %x then %x for the same seed", w.name, a, b)
		}
		other := digestOf(t, w, 2, 2)
		if w.seeded && other == a {
			t.Errorf("%s: seeds 1 and 2 give the same digest %x", w.name, a)
		}
		if !w.seeded && other != a {
			t.Errorf("%s takes no random inputs, but seeds 1 and 2 differ: %x vs %x", w.name, a, other)
		}
	}
}

func TestEveryWorkloadHasAPinnedDigest(t *testing.T) {
	for _, w := range workloads {
		if len(pinnedDigests[w.name]) != 16 {
			t.Errorf("%s: no pinned seed-1 digest", w.name)
		}
	}
	if len(pinnedDigests) != len(workloads) {
		t.Errorf("%d pinned digests for %d workloads", len(pinnedDigests), len(workloads))
	}
}

func TestAuditedOpIsClean(t *testing.T) {
	for _, w := range tinyWorkloads {
		if !w.audit {
			continue
		}
		env := &opEnv{}
		r := w.build(1, env)
		sum, err := auditedOp(r, env)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if sum.Runs == 0 || sum.ViolationCount != 0 {
			t.Errorf("%s: audited %d runs with %d violations: %v", w.name, sum.Runs, sum.ViolationCount, sum.Violations)
		}
	}
}

// flaky fails every third op with an error and panics on op 4.
type flaky struct{}

func (flaky) op(i int, env *opEnv) error {
	env.put(int64(i))
	switch {
	case i == 4:
		panic("boom")
	case i%3 == 2:
		return errors.New("op error")
	}
	return nil
}

func TestFailedOpsAreCounted(t *testing.T) {
	w := workload{name: "flaky", build: func(uint64, *opEnv) runner { return flaky{} }}
	rec, err := runWorkload(w, config{seed: 1, minOps: 9}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// One warm-up op per set-up (op 0, fine) and nine timed ops 0..8,
	// of which ops 2, 5 and 8 error and op 4 panics.
	if rec.Attempted != setupReps+9 || rec.Failed != 4 {
		t.Errorf("attempted %d failed %d, want %d and 4 (errors %v)", rec.Attempted, rec.Failed, setupReps+9, rec.Errors)
	}
	if len(rec.Errors) != 4 || !strings.Contains(strings.Join(rec.Errors, ";"), "panic: boom") {
		t.Errorf("errors %v do not record the panic", rec.Errors)
	}
	var names []string
	for _, m := range endToEnd {
		names = append(names, m.name)
		if got, ok := rec.Metrics[m.name]; !ok || got.Unit != m.unit {
			t.Errorf("metric %s: got %+v, want unit %s", m.name, got, m.unit)
		}
	}
	if len(rec.Metrics) != len(endToEnd) {
		t.Errorf("metrics %v, want exactly %v", sortedKeys(rec.Metrics), names)
	}
}
