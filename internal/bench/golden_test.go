package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/logp"
	"repro/internal/logp/reference"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current engine")

// The golden-equivalence suite locks the LogP engine's observable
// behaviour: every scheduler or data-structure change inside
// internal/logp must reproduce these recorded Results bit for bit,
// across all delivery policies, accept orders, machine sizes, and
// seeds. The workloads mirror the example programs (quickstart's CB
// sum, broadcast, the hotspot stalling demo, a pipelined ring, and a
// dense all-to-all) so that "run the examples and compare" is captured
// as an assertion rather than a manual step.

type goldenResult struct {
	Time           int64  `json:"time"`
	LastDelivery   int64  `json:"lastDelivery"`
	MessagesSent   int64  `json:"messagesSent"`
	StallEvents    int64  `json:"stallEvents"`
	StallCycles    int64  `json:"stallCycles"`
	MaxBufferDepth int    `json:"maxBufferDepth"`
	ProcTimesHash  string `json:"procTimesHash"`
}

func hashProcTimes(ts []int64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, t := range ts {
		for i := 0; i < 8; i++ {
			b[i] = byte(uint64(t) >> (8 * i))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func toGolden(r logp.Result) goldenResult {
	return goldenResult{
		Time:           r.Time,
		LastDelivery:   r.LastDelivery,
		MessagesSent:   r.MessagesSent,
		StallEvents:    r.StallEvents,
		StallCycles:    r.StallCycles,
		MaxBufferDepth: r.MaxBufferDepth,
		ProcTimesHash:  hashProcTimes(r.ProcTimes),
	}
}

// hotspotProgram is the examples/hotspot workload: every processor
// blasts perSender messages at the last processor, exercising the
// Stalling Rule (and hence the accept-order choice).
func hotspotProgram(perSender int) logp.Program {
	return func(p logp.Proc) {
		hot := p.P() - 1
		if p.ID() != hot {
			for k := 0; k < perSender; k++ {
				p.Send(hot, 0, int64(k), 0)
			}
			return
		}
		for i := 0; i < (p.P()-1)*perSender; i++ {
			p.Recv()
		}
	}
}

// allToAllProgram sends one message to every other processor and
// receives P-1, the densest traffic pattern the examples use.
func allToAllProgram(p logp.Proc) {
	n := p.P()
	for d := 1; d < n; d++ {
		p.Send((p.ID()+d)%n, 0, int64(p.ID()), 0)
	}
	for k := 0; k < n-1; k++ {
		p.Recv()
	}
}

// goldenCase is one recorded configuration: a workload on a machine
// under one delivery policy, acceptance order, and seed.
type goldenCase struct {
	params logp.Params
	policy logp.DeliveryPolicy
	order  logp.AcceptOrder
	seed   uint64
	prog   logp.Program
}

// run executes the case on a fresh engine Machine.
func (c goldenCase) run() (logp.Result, error) {
	m := logp.NewMachine(c.params,
		logp.WithDeliveryPolicy(c.policy),
		logp.WithAcceptOrder(c.order),
		logp.WithSeed(c.seed))
	return m.Run(c.prog)
}

func goldenCases() (keys []string, cases map[string]goldenCase) {
	programs := []struct {
		name string
		prog logp.Program
	}{
		{"cb", cbProgram},
		{"ring", ringProgram(4)},
		{"bcast", bcastProgram},
		{"hotspot", hotspotProgram(2)},
		{"alltoall", allToAllProgram},
	}
	paramSets := []struct {
		L, O, G int64
	}{
		{16, 1, 2}, // capacity 8: mostly stall-free
		{8, 1, 4},  // capacity 2: the hotspot and alltoall workloads stall
	}
	policies := []logp.DeliveryPolicy{logp.DeliverMaxLatency, logp.DeliverMinLatency, logp.DeliverRandom}
	orders := []logp.AcceptOrder{logp.AcceptFIFO, logp.AcceptLIFO, logp.AcceptRandom}

	cases = map[string]goldenCase{}
	for _, pr := range programs {
		for _, pc := range []int{4, 64} {
			for _, ps := range paramSets {
				lp := logp.Params{P: pc, L: ps.L, O: ps.O, G: ps.G}
				for _, pol := range policies {
					for _, ord := range orders {
						for _, seed := range []uint64{1, 2} {
							key := fmt.Sprintf("%s/p=%d/L=%d/o=%d/G=%d/%s/%s/seed=%d",
								pr.name, pc, ps.L, ps.O, ps.G, pol, ord, seed)
							cases[key] = goldenCase{params: lp, policy: pol, order: ord, seed: seed, prog: pr.prog}
							keys = append(keys, key)
						}
					}
				}
			}
		}
	}
	sort.Strings(keys)
	return keys, cases
}

const goldenResultsFile = "testdata/golden_logp.json"

// TestGoldenEquivalence replays every recorded configuration and
// asserts the engine reproduces the recorded Result exactly. Run with
// -update to re-record (only legitimate when the model semantics
// intentionally change, never for a "behavior-preserving" refactor).
func TestGoldenEquivalence(t *testing.T) {
	keys, cases := goldenCases()

	if *update {
		got := map[string]goldenResult{}
		for _, k := range keys {
			res, err := cases[k].run()
			if err != nil {
				t.Fatalf("%s: %v", k, err)
			}
			got[k] = toGolden(res)
		}
		writeGoldenJSON(t, goldenResultsFile, got)
		return
	}

	want := readGoldenResults(t, keys)
	for _, k := range keys {
		k := k
		t.Run(k, func(t *testing.T) {
			res, err := cases[k].run()
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if g := toGolden(res); g != want[k] {
				t.Errorf("result diverged from recorded golden:\n got %+v\nwant %+v", g, want[k])
			}
		})
	}
}

// TestGoldenReferenceAgrees checks the recorded Results against the
// reference interpreter, which shares no code with the engine. It
// never rewrites the file, so a -update that re-records changed engine
// semantics fails here instead of passing silently.
func TestGoldenReferenceAgrees(t *testing.T) {
	keys, cases := goldenCases()
	want := readGoldenResults(t, keys)
	for _, k := range keys {
		c := cases[k]
		res, err := reference.Run(c.params, c.prog, reference.Config{Policy: c.policy, Order: c.order, Seed: c.seed})
		if err != nil {
			t.Errorf("%s: reference run: %v", k, err)
			continue
		}
		if g := toGolden(res); g != want[k] {
			t.Errorf("%s: reference interpreter disagrees with the recorded golden:\n got %+v\nwant %+v", k, g, want[k])
		}
	}
}

// readGoldenResults loads the recorded Results and checks that they
// cover exactly the suite's cases.
func readGoldenResults(t *testing.T, keys []string) map[string]goldenResult {
	t.Helper()
	data, err := os.ReadFile(goldenResultsFile)
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update): %v", err)
	}
	want := map[string]goldenResult{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse %s: %v", goldenResultsFile, err)
	}
	if len(want) != len(keys) {
		t.Fatalf("golden file has %d cases, suite defines %d (regenerate with -update)", len(want), len(keys))
	}
	for _, k := range keys {
		if _, ok := want[k]; !ok {
			t.Fatalf("%s: case missing from golden file (regenerate with -update)", k)
		}
	}
	return want
}

// TestGoldenExperimentTables locks the full rendered output of every
// experiment of the regular suite at its quick configuration: each
// table is a pure function of the engines plus the seed.
func TestGoldenExperimentTables(t *testing.T) {
	cfg := Config{Quick: true, Seed: 1}
	for _, e := range All() {
		id := e.ID
		t.Run(id, func(t *testing.T) {
			got := e.Run(cfg).Render()
			path := filepath.Join("testdata", "golden_"+id+"_quick.txt")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden table (regenerate with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s quick table diverged from golden:\n--- got ---\n%s\n--- want ---\n%s", id, got, want)
			}
		})
	}
}

// TestGoldenFullSizeTables locks the full-size tables of the
// experiments that run on core's guest runtime — the Theorem 1 replay
// (E2, E6, E9, A5) and the network co-simulation (E13) — whose larger
// machines reach schedules the quick sizes do not.
func TestGoldenFullSizeTables(t *testing.T) {
	full := map[string]bool{"E2": true, "E6": true, "E9": true, "E13": true, "A5": true}
	cfg := Config{Seed: 1}
	for _, e := range All() {
		if !full[e.ID] {
			continue
		}
		id := e.ID
		t.Run(id, func(t *testing.T) {
			got := e.Run(cfg).Render()
			path := filepath.Join("testdata", "golden_"+id+"_full.txt")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden table (regenerate with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s full-size table diverged from golden:\n--- got ---\n%s\n--- want ---\n%s", id, got, want)
			}
		})
	}
}

func writeGoldenJSON(t *testing.T, path string, v interface{}) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
