package bench

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/logp"
)

// The sorting-based extension in Script form: bucketSortScript must be
// indistinguishable from E9's bucketSortProgram on every engine it can
// run on. These tests reuse the E9 golden configuration (p=16,
// perProc=32, the four skew levels) as the byte-identity anchors.

// e9Config is the E9 machine and key shape the golden cases reuse.
func e9Config() (logp.Params, int, int, int) {
	return logp.Params{P: 16, L: 16, O: 1, G: 4}, 16, 32, 1 << 16
}

// TestBucketSortScriptMatchesProgramForms pins the native-engine
// byte-identity: at every E9 skew level the Program form, the dense
// oracle Run(ScriptAsProgram), and the sparse RunScript produce
// bit-for-bit the same logp.Result.
func TestBucketSortScriptMatchesProgramForms(t *testing.T) {
	params, pCount, perProc, keyRange := e9Config()
	opts := func() []logp.Option {
		return []logp.Option{logp.WithDeliveryPolicy(logp.DeliverMinLatency), logp.WithSeed(1)}
	}
	for _, skew := range []int{0, 50, 90, 99} {
		t.Run(fmt.Sprintf("skew=%d", skew), func(t *testing.T) {
			keys := skewedKeys(1, pCount, perProc, skew, keyRange)
			prog, err := logp.NewMachine(params, opts()...).Run(bucketSortProgram(keys, keyRange))
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := logp.NewMachine(params, opts()...).
				Run(logp.ScriptAsProgram(newBucketSortScript(keys, keyRange)))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(prog, oracle) {
				t.Fatalf("ScriptAsProgram diverged from the Program form:\nprogram %+v\noracle  %+v", prog, oracle)
			}
			sparse, err := logp.NewMachine(params, opts()...).
				RunScript(newBucketSortScript(keys, keyRange))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(prog, sparse) {
				t.Fatalf("RunScript diverged from the Program form:\nprogram %+v\nsparse  %+v", prog, sparse)
			}
		})
	}
}

// TestBucketSortScriptThm1ExtensionMatches pins the Theorem 1 replay:
// the cycle engine must charge the identical Thm1Result — BSPTime,
// CapacityViolations, and the sorting-based ExtensionTime (the
// executed bitonic preprocessing at this power-of-two p) — for the
// Script and Program forms of the same skewed relation, and the
// high-skew case must actually overload cycles so the equality is not
// vacuous.
func TestBucketSortScriptThm1ExtensionMatches(t *testing.T) {
	lp, pCount, perProc, keyRange := e9Config()
	for _, skew := range []int{0, 99} {
		t.Run(fmt.Sprintf("skew=%d", skew), func(t *testing.T) {
			keys := skewedKeys(1, pCount, perProc, skew, keyRange)
			progRes, err := (&core.LogPOnBSP{LogP: lp}).Run(bucketSortProgram(keys, keyRange))
			if err != nil {
				t.Fatal(err)
			}
			scRes, err := (&core.LogPOnBSP{LogP: lp}).RunScript(newBucketSortScript(keys, keyRange))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(progRes, scRes) {
				t.Fatalf("Thm1Result diverged between forms:\nprogram %+v\nscript  %+v", progRes, scRes)
			}
			if skew == 99 {
				if scRes.CapacityViolations == 0 {
					t.Fatalf("skewed replay reported no capacity violations: %+v", scRes)
				}
				if scRes.ExtensionTime <= scRes.BSPTime {
					t.Fatalf("extension time %d not above plain BSP time %d", scRes.ExtensionTime, scRes.BSPTime)
				}
			}
		})
	}
}
