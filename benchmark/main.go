// Command benchmark measures how fast, and in how much memory, the
// repository's simulators reproduce the paper's costs. It runs five
// fixed-shape workloads over the public APIs of the logp, core,
// relation, netsim/topology and collective layers, times every op,
// checks the simulated outputs, and prints every metric by name and
// unit. See README.md for the workloads, metrics and bounds.
//
//	bash benchmark/run.sh                               # all workloads, one child process each
//	bash benchmark/run.sh --workload netsim-gl-p256     # one workload, in this process
//	bash benchmark/run.sh --workload netsim-gl-p256 --trace 1   # per-layer metrics
//	bash benchmark/run.sh -out run.json                 # raw samples and provenance to a file
//	bash benchmark/run.sh -compare parent*.json -- change*.json
package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"strconv"
	"time"

	"repro/internal/logp"
	"repro/internal/netsim"
)

const (
	// setupReps fresh constructions are timed; setup_s is their median.
	setupReps = 5
	// digestOps ops, from op 0, are folded into the output digest.
	digestOps = 100
	// gomaxprocs is the workload process's setting. The engines are
	// single-threaded; a second P only adds scheduling noise to the
	// timings (see README.md).
	gomaxprocs = 1
)

// pinnedDigests are the seed-1 output digests of the first digestOps
// ops of each workload. A change that only speeds up a simulator must
// leave them unchanged.
var pinnedDigests = map[string]string{
	"thm2-routers-p64":     "ee1945870c7fa6a1",
	"route-script-p8k":     "57cfe60193798ffd",
	"randroute-script-p8k": "a1fb6dc7d2269c25",
	"thm1-replay-p32k":     "c76282bb219b6aa5",
	"netsim-gl-p256":       "8a98ac96f711b02e",
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	seed     uint64
	seconds  float64
	trace    bool
	minOps   int
	buildDir string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "run only this workload, in this process (default: all, one child process each)")
	seed := fs.Uint64("seed", 1, "input seed; op i draws from (seed, i)")
	seconds := fs.Float64("seconds", 12, "length of the timed phase in seconds (at least 100 ops run)")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	out := fs.String("out", "", "write provenance and raw per-op samples to this JSON file")
	compare := fs.Bool("compare", false, "compare results files: -compare A.json... -- B.json...")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *compare {
		return compareMain(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, minOps: minOpsFor(0.9), buildDir: buildDir()}
	if *workloadName == "" {
		return runAll(cfg, *out, stdout, stderr)
	}
	w, ok := findWorkload(*workloadName)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workloadName)
		return 2
	}
	runtime.GOMAXPROCS(gomaxprocs)
	rec, err := runWorkload(w, cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	if *out != "" {
		if err := writeResults(*out, cfg, []runRecord{rec}); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Failed == 0, rec.Attempted, rec.Failed, rec.Metrics})
	fmt.Fprintln(stdout, string(line))
	if rec.Failed > 0 {
		return 1
	}
	return 0
}

// buildDir holds build outputs, profiles and traces, inside the
// checkout; run.sh passes it in.
func buildDir() string {
	if d := os.Getenv("BENCH_BUILD_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one run of one workload: the raw per-op samples in op
// order, then the sorted aggregates and the metrics.
type runRecord struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Trace      bool               `json:"trace"`
	Ops        int                `json:"ops"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Digest     string             `json:"digest"`
	SetupS     []float64          `json:"setup_s"`
	SamplesMs  []float64          `json:"samples_ms"`
	RefMs      []float64          `json:"ref_ms"`
	Aggregates map[string]float64 `json:"aggregates"`
	Metrics    map[string]metric  `json:"metrics"`
	Errors     []string           `json:"errors,omitempty"`
}

// runState carries one workload run through its phases.
type runState struct {
	w         workload
	r         runner
	env       *opEnv
	next      int // index of the next op
	digest    hash.Hash64
	attempted int
	failed    int
	errs      []string
}

func (rs *runState) fail(what string, err error) {
	rs.failed++
	if len(rs.errs) < 10 {
		rs.errs = append(rs.errs, fmt.Sprintf("%s: %v", what, err))
	}
}

// safeOp runs op i, turning a panic into an error.
func safeOp(r runner, i int, env *opEnv) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return r.op(i, env)
}

// ops runs ops until budget has passed and at least minOps have run.
// It returns each op's wall time and the time of the reference kernel
// run just before it, in milliseconds. Ops below digestOps fold their
// outputs into the digest.
func (rs *runState) ops(minOps int, budget time.Duration) (samples, refs []float64) {
	var word [8]byte
	start := time.Now()
	for len(samples) < minOps || time.Since(start) < budget {
		refs = append(refs, refKernel())
		i := rs.next
		rs.next++
		rs.env.op = i
		rs.env.out = rs.env.out[:0]
		sp := rs.env.begin("op", "op")
		t := time.Now()
		err := safeOp(rs.r, i, rs.env)
		d := time.Since(t)
		rs.env.end(sp)
		samples = append(samples, float64(d.Nanoseconds())/1e6)
		rs.attempted++
		if err != nil {
			rs.fail(fmt.Sprintf("op %d", i), err)
		}
		if i < digestOps {
			for _, v := range rs.env.out {
				binary.LittleEndian.PutUint64(word[:], uint64(v))
				rs.digest.Write(word[:])
			}
		}
	}
	return samples, refs
}

// setup builds the workload setupReps times from scratch, each
// followed by one discarded warm-up op, and keeps the last build. The
// returned tracer holds the set-up spans when tracing.
func setup(w workload, cfg config) (*runState, []float64, *tracer) {
	var setupTr *tracer
	if cfg.trace {
		setupTr = newTracer()
	}
	rs := &runState{w: w, digest: fnv.New64a()}
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		rs.r, rs.env = nil, nil
		runtime.GC()
		env := &opEnv{tr: setupTr, op: -1}
		t := time.Now()
		r := w.build(cfg.seed, env)
		env.tr = nil
		err := safeOp(r, 0, env)
		times = append(times, time.Since(t).Seconds())
		rs.attempted++
		if err != nil {
			rs.fail("warm-up op", err)
		}
		rs.r, rs.env = r, &opEnv{}
	}
	return rs, times, setupTr
}

func runWorkload(w workload, cfg config, stdout io.Writer) (runRecord, error) {
	rs, setupTimes, setupTr := setup(w, cfg)
	rec := runRecord{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, SetupS: setupTimes}
	budget := time.Duration(cfg.seconds * float64(time.Second))

	runtime.GC()
	// The kernel's first runs after set-up are about 1.3 times slower
	// than the rest; let them pass before timing.
	for range 5 {
		refKernel()
	}
	var layer map[string]metric
	var samples, refs []float64
	if !cfg.trace {
		samples, refs = rs.ops(cfg.minOps, budget)
	} else {
		var err error
		layer, samples, refs, err = tracedRun(rs, cfg, setupTr, budget)
		if err != nil {
			return rec, err
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(rs.r)

	rs.check(cfg.seed)

	rec.Ops = len(samples)
	rec.Attempted, rec.Failed, rec.Errors = rs.attempted, rs.failed, rs.errs
	rec.Digest = fmt.Sprintf("%016x", rs.digest.Sum64())
	rec.SamplesMs, rec.RefMs = samples, refs
	rec.Aggregates = aggregates(samples, refs, setupTimes)
	if cfg.trace {
		rec.Metrics = layer
	} else {
		// Each op's time in units of the reference kernel run just
		// before it.
		ratios := make([]float64, len(samples))
		total := 0.0
		for i := range samples {
			ratios[i] = samples[i] / refs[i]
			total += ratios[i]
		}
		slices.Sort(ratios)
		rec.Metrics = map[string]metric{
			"setup_s":      {median(setupTimes) * refNominalMs / median(refs), "s"},
			"op_p50_ref":   {nearestRank(ratios, 0.5), "ref"},
			"op_p90_ref":   {nearestRank(ratios, 0.9), "ref"},
			"ops_per_kref": {1000 * float64(len(ratios)) / total, "1/kref"},
			"retained_mb":  {float64(ms.HeapAlloc) / (1 << 20), "MB"},
		}
	}
	fmt.Fprintf(stdout, "workload %s seed %d ops %d digest %s\n", w.name, cfg.seed, rec.Ops, rec.Digest)
	for _, name := range sortedKeys(rec.Metrics) {
		m := rec.Metrics[name]
		fmt.Fprintf(stdout, "  %-32s %14s %s\n", name, formatValue(m.Value), m.Unit)
	}
	for _, name := range sortedKeys(rec.Aggregates) {
		fmt.Fprintf(stdout, "  wall %-27s %14s\n", name, formatValue(rec.Aggregates[name]))
	}
	fmt.Fprintf(stdout, "  %-32s %14s %s\n", "failed_frac", formatValue(float64(rec.Failed)/float64(rec.Attempted)), "frac")
	for _, e := range rec.Errors {
		fmt.Fprintf(stdout, "  FAIL %s\n", e)
	}
	return rec, nil
}

// check is the untimed check phase: op 0 of every logp workload runs
// again under the invariant auditor, and the seed-1 digest must match
// its pinned value.
func (rs *runState) check(seed uint64) {
	if rs.w.audit {
		rs.attempted++
		sum, err := auditedOp(rs.r, rs.env)
		switch {
		case err != nil:
			rs.fail("audited op 0", err)
		case sum.ViolationCount > 0:
			rs.fail("audited op 0", fmt.Errorf("%d invariant violations, first: %v", sum.ViolationCount, sum.Violations))
		case sum.Runs == 0:
			rs.fail("audited op 0", errors.New("no machine run was audited"))
		}
	}
	want, pinned := pinnedDigests[rs.w.name]
	if seed == 1 && pinned && rs.next >= digestOps {
		if got := fmt.Sprintf("%016x", rs.digest.Sum64()); got != want {
			rs.failed += digestOps
			rs.errs = append(rs.errs, fmt.Sprintf("digest %s of ops 0..%d, pinned %s", got, digestOps-1, want))
		}
	}
}

// auditedOp re-runs op 0 with the process-wide logp auditor on,
// requiring every message to be acquired. Auditing is enabled before
// the op's first machine run, so every run is covered.
func auditedOp(r runner, env *opEnv) (logp.AuditSummary, error) {
	logp.EnableAudit(logp.AuditConfig{RequireAcquired: true})
	defer logp.DisableAudit()
	env.out, env.op = env.out[:0], 0
	err := safeOp(r, 0, env)
	return logp.TakeAuditSummary(), err
}

// tracedRun splits the timed phase: an untraced half, then a half with
// spans and a CPU profile. It returns the per-layer metrics and the
// untraced half's op and reference samples.
func tracedRun(rs *runState, cfg config, setupTr *tracer, budget time.Duration) (layer map[string]metric, plain, refs []float64, err error) {
	if err := os.MkdirAll(cfg.buildDir, 0o755); err != nil {
		return nil, nil, nil, err
	}
	rtBefore := readRuntime()
	plain, refs = rs.ops(cfg.minOps/2, budget/2)
	rtAfter := readRuntime()

	profPath := filepath.Join(cfg.buildDir, "cpu_"+rs.w.name+".pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return nil, nil, nil, err
	}
	c0, ev0, hop0 := rs.env.c, logp.SimEventCount(), netsim.SimHopCount()
	rs.env.tr = newTracer()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, nil, nil, err
	}
	traced, _ := rs.ops(cfg.minOps/2, budget/2)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, nil, nil, err
	}
	tr := rs.env.tr
	rs.env.tr = nil
	top, err := pprofTop(profPath)
	if err != nil {
		return nil, nil, nil, err
	}
	fold, err := foldTop(top)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := writeTrace(cfg, rs.w.name, setupTr, tr); err != nil {
		return nil, nil, nil, err
	}

	lc := layerCounts{
		ops:    float64(len(traced)),
		c:      rs.env.c.sub(c0),
		events: float64(logp.SimEventCount() - ev0),
		hops:   float64(netsim.SimHopCount() - hop0),
		span:   tr.durations(),
		setup:  setupTr.durations(),
		fold:   fold,
		allocB: rtAfter.allocBytes - rtBefore.allocBytes,
		// The runtime updates its CPU classes only as collections end, so
		// a half without a collection reads 0.
		gcFrac: ratio(rtAfter.gcCPU-rtBefore.gcCPU, rtAfter.totalCPU-rtBefore.totalCPU),
		plainN: float64(len(plain)),
	}
	sortedPlain, sortedTraced := slices.Clone(plain), slices.Clone(traced)
	slices.Sort(sortedPlain)
	slices.Sort(sortedTraced)
	lc.overhead = nearestRank(sortedTraced, 0.5)/nearestRank(sortedPlain, 0.5) - 1
	return lc.metrics(), plain, refs, nil
}

// aggregates sorts a run's wall-time samples into its summary: op
// time quantiles in ms, op throughput over op time alone, the median
// reference-kernel time and the median set-up time.
func aggregates(samples, refs, setupTimes []float64) map[string]float64 {
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	total := 0.0
	for _, v := range samples {
		total += v
	}
	return map[string]float64{
		"min_ms":     sorted[0],
		"p50_ms":     nearestRank(sorted, 0.5),
		"p90_ms":     nearestRank(sorted, 0.9),
		"max_ms":     sorted[len(sorted)-1],
		"ops_per_s":  float64(len(samples)) / (total / 1e3),
		"ref_p50_ms": median(refs),
		"setup_s":    median(setupTimes),
	}
}

type runtimeSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}

func writeTrace(cfg config, name string, setupTr, tr *tracer) error {
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Setup    []span `json:"setup_spans"`
		Spans    []span `json:"spans"`
	}{name, cfg.seed, setupTr.spans, tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.buildDir, "trace_"+name+".json"), b, 0o644)
}

// runAll runs every workload in its own child process, one after
// another.
func runAll(cfg config, out string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(cfg.buildDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	childOut := filepath.Join(cfg.buildDir, "child.json")
	var recs []runRecord
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(cfg.seed),
			"-seconds", formatValue(cfg.seconds), "-trace", fmt.Sprint(boolInt(cfg.trace)), "-out", childOut)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		_ = os.Remove(childOut) // absent unless an earlier child left it
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			code = 1
		}
		// A child that failed ops still writes its record.
		if res, err := readResults(childOut); err == nil {
			recs = append(recs, res.Runs...)
		}
	}
	if out != "" {
		if err := writeResults(out, cfg, recs); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return code
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// formatValue prints a metric with all its digits.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
