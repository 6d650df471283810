// Command perfbench is the repository benchmark. One invocation runs one
// named workload against the simulator and its service layers for a fixed
// wall-clock window, checks every simulated result, and prints as the last
// line of standard output one JSON object with the end-to-end metrics
// (-trace 0) or the per-layer metrics gathered from spans around each
// layer's public calls (-trace 1). README.md describes the workloads and
// metrics; run.sh builds and runs it from the repository root.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

const (
	defaultSeed    = 1
	defaultSeconds = 35
	// setupReps is how many times a run repeats its set-up, each in a
	// process of its own; setup_s is the median.
	setupReps = 9
)

type metricDef struct{ name, unit string }

// endToEnd lists the metrics a traced-off run prints, in BENCHMARK.json
// order. They are the ones that hypervisor CPU steal cannot move: the
// kernel leaves stolen time out of a process's CPU time.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_s_per_mcycle", "s/Mcycle"},
	{"peak_rss_mb", "MiB"},
}

// wallDefs are the wall-clock end-to-end metrics. Steal on a shared host
// moves them by more than any bound BENCHMARK.json may set, so they are
// reported without one: in a traced-off run's metadata and among a
// traced run's per-layer metrics.
var wallDefs = []metricDef{
	{"wall.sim_cycles_per_s", "cycles/s"},
	{"wall.op_p50_ms", "ms"},
	{"wall.op_tail_ms", "ms"},
	{"wall.sweep_p50_ms", "ms"},
	{"wall.goodput_rps", "1/s"},
}

// layerDefs lists the per-layer metrics a traced run prints after
// wallDefs and before the per-config simulated counts of simCountDefs.
var layerDefs = []metricDef{
	{"fabric.build_ms", "ms"},
	{"fabric.warmup_ns_per_cycle", "ns/cycle"},
	{"fabric.step_ns_per_cycle", "ns/cycle"},
	{"fabric.step_ns_per_packet", "ns/packet"},
	{"fabric.finish_us", "us"},
	{"fabric.checkpoint_us", "us"},
	{"fabric.restore_us", "us"},
	{"batch.plan_us", "us"},
	{"batch.groups", "count"},
	{"batch.members", "count"},
	{"batch.cpu_util", "ratio"},
	{"hetpnoc.key_us_p50", "us"},
	{"serve.decode_us_p50", "us"},
	{"serve.submit_hit_us_p50", "us"},
	{"serve.submit_miss_ms_p50", "ms"},
	{"serve.submit_coalesced_ms_p50", "ms"},
	{"http.overhead_us_p50", "us"},
	{"serve.queue_depth_mean", "count"},
	{"serve.inflight_max", "count"},
	{"serve.coalesced", "count"},
	{"serve.rejected", "count"},
	{"serve.batched_runs", "count"},
	{"cache.hit_ratio", "ratio"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.alloc_bytes_per_kcycle", "B/kcycle"},
	{"runtime.gc_cycles", "count"},
	{"runtime.sched_latency_p99_us", "us"},
	{"loadgen.lag_ms_max", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// simCountDefs are the simulated counts reported per run-saturated config.
var simCountDefs = []metricDef{
	{"traffic.packets_injected", "count"},
	{"traffic.packets_rejected", "count"},
	{"stats.packets_delivered", "count"},
	{"stats.latency_p99_cycles", "cycles"},
	{"xbar.packets_dropped_rx", "count"},
	{"xbar.channel_busy_frac_mean", "ratio"},
	{"core.token_rotations", "count"},
	{"fabric.retransmissions", "count"},
	{"router.switch_energy_pj", "pJ"},
	{"router.buffer_residency_pj", "pJ"},
}

// perLayer is every per-layer metric, in BENCHMARK.json order.
func perLayer() []metricDef {
	out := append(append([]metricDef(nil), wallDefs...), layerDefs...)
	for _, c := range saturatedSpecs {
		for _, d := range simCountDefs {
			out = append(out, metricDef{d.name + "." + c.name, d.unit})
		}
	}
	return out
}

// env is what every workload runs with.
type env struct {
	seed   uint64
	window time.Duration
	nproc  int
	rec    *Recorder // nil on an end-to-end run
	check  *checker
}

// derive returns the i-th seed of the stream derived from the workload
// seed (splitmix64), never 0 so it never selects the config default.
func (e *env) derive(i uint64) uint64 {
	z := e.seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// measured is what one workload run reports back.
type measured struct {
	setup     []time.Duration // CPU time of each set-up child
	ops       []time.Duration // untraced op latencies
	tracedOps []time.Duration // op latencies with spans on (traced runs)
	sweeps    []time.Duration // serve-mixed /v1/sweep latencies
	good      int64           // ops answered correctly within the latency limit
	attempted int64
	failed    int64 // failed, refused, timed-out or incorrect ops
	cycles    int64 // simulated cycles completed in the window
	wall      time.Duration
	cpu       time.Duration
	rt        runtimeDelta
	layers    map[string]float64 // per-layer values the workload measured
	digests   map[string]string  // result digests, for the committed check
	meta      map[string]any

	// opsByConfig and tracedByConfig split the ops by config for a closed
	// loop over a rotation; see typicalOp.
	opsByConfig, tracedByConfig [][]time.Duration
}

func newMeasured() *measured {
	return &measured{layers: map[string]float64{}, digests: map[string]string{}, meta: map[string]any{}}
}

// window brackets the timed part of a run: wall, process CPU and runtime
// counters.
type window struct {
	start             time.Time
	cpu               time.Duration
	rt                runtimeSample
	steal, stealTotal uint64
}

func openWindow() window {
	w := window{start: time.Now(), cpu: processCPU(), rt: readRuntime()}
	w.steal, w.stealTotal = stealTicks()
	return w
}

// close records the window's wall time, CPU and runtime deltas, and the
// share of the host's CPU time the hypervisor stole meanwhile: a noisy
// neighbour shows there, not in the program.
func (w window) close(m *measured) {
	m.wall = time.Since(w.start)
	m.cpu = processCPU() - w.cpu
	m.rt = w.rt.to(readRuntime())
	steal, total := stealTicks()
	if total > w.stealTotal {
		m.meta["host_steal_frac"] = float64(steal-w.steal) / float64(total-w.stealTotal)
	}
}

// An instance is a workload set up in this process, ready to be measured.
type instance interface {
	// measure runs the timed window and the checks after it.
	measure(context.Context, *env) (*measured, error)
	// close releases what set-up started.
	close()
}

// workloads maps each name to its set-up: everything before the first
// timed op.
var workloads = map[string]func(context.Context, *env) (instance, error){
	"run-saturated": setupSaturated,
	"matrix-sweep":  setupMatrixSweep,
	"serve-mixed":   setupServeMixed,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: run-saturated, matrix-sweep or serve-mixed")
		seed     = flag.Uint64("seed", defaultSeed, "workload seed; every input is derived from it")
		seconds  = flag.Int("seconds", defaultSeconds, "length of the timed window in seconds")
		trace    = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
		out      = flag.String("out", ".bench_build", "directory for the span file of a traced run")
		record   = flag.Bool("record-digests", false, "write this run's result digests to "+digestFile+" (default seed and length only)")
		setup    = flag.Bool("setup-only", false, "set the workload up, print \"ready\" and exit; a run times its set-up this way")
	)
	flag.Parse()
	var err error
	if *setup {
		err = setupOnly(*workload, *seed, *seconds)
	} else {
		err = run(*workload, *seed, *seconds, *trace == 1, *out, *record)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// newEnv checks the arguments and returns the environment a workload runs
// with, and the workload's set-up.
func newEnv(workload string, seed uint64, seconds int) (*env, func(context.Context, *env) (instance, error), error) {
	setup, ok := workloads[workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 {
		return nil, nil, fmt.Errorf("-seconds must be at least 1")
	}
	if _, err := os.Stat("go.mod"); err != nil {
		return nil, nil, fmt.Errorf("run from the repository root: %w", err)
	}
	e := &env{seed: seed, window: time.Duration(seconds) * time.Second,
		nproc: runtime.GOMAXPROCS(0), check: &checker{}}
	return e, setup, nil
}

// setupOnly is a set-up child: it sets the workload up as a run would,
// prints "ready" and the CPU time it has used so far, in nanoseconds, on
// standard output, and tears down again.
func setupOnly(workload string, seed uint64, seconds int) error {
	e, setup, err := newEnv(workload, seed, seconds)
	if err != nil {
		return err
	}
	w, err := setup(context.Background(), e)
	if err != nil {
		return err
	}
	fmt.Println("ready", processCPU().Nanoseconds())
	w.close()
	return nil
}

// timeSetups starts setupReps set-up children of this binary one after
// another. Each one's set-up runs from process start through runtime and
// package initialisation and the workload's set-up, up to where the first
// timed op would begin. It returns the CPU time each child reports at that
// point, which host steal does not inflate, and the wall time from its
// start to its "ready" line.
func timeSetups(workload string, seed uint64, seconds int) (cpu, wall []time.Duration, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	args := []string{"-setup-only", "-workload", workload,
		"-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.Itoa(seconds)}
	for rep := 0; rep < setupReps; rep++ {
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, nil, err
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		d := time.Since(t0)
		_, _ = io.Copy(io.Discard, stdout) // nothing follows; drain before Wait
		if err := cmd.Wait(); err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", rep, err)
		}
		var ns int64
		if _, err := fmt.Sscanf(line, "ready %d\n", &ns); rerr != nil || err != nil {
			return nil, nil, fmt.Errorf("set-up %d: no ready line", rep)
		}
		cpu, wall = append(cpu, time.Duration(ns)), append(wall, d)
	}
	return cpu, wall, nil
}

func run(workload string, seed uint64, seconds int, traced bool, out string, record bool) error {
	e, setup, err := newEnv(workload, seed, seconds)
	if err != nil {
		return err
	}
	host := fingerprint(".")
	committed, err := loadDigests()
	if err != nil {
		return err
	}
	// The set-up children run before this process sets up, so none of
	// them competes with its service for the CPU.
	setupCPU, setupWall, err := timeSetups(workload, seed, seconds)
	if err != nil {
		return err
	}
	if traced {
		e.rec = NewRecorder()
	}
	ctx := context.Background()
	w, err := setup(ctx, e)
	if err != nil {
		return err
	}
	m, err := w.measure(ctx, e)
	w.close()
	if err != nil {
		return err
	}
	m.setup = setupCPU

	defaultRun := seed == defaultSeed && seconds == defaultSeconds
	var unchecked []string
	switch {
	case record && !defaultRun:
		return fmt.Errorf("-record-digests needs the default seed %d and -seconds %d", defaultSeed, defaultSeconds)
	case record:
		if err := recordDigests(workload, m.digests); err != nil {
			return err
		}
	case defaultRun:
		if len(committed[workload]) == 0 {
			e.check.failf("%s: no committed digests in %s", workload, digestFile)
		}
		unchecked = checkCommitted(e.check, workload, committed[workload], m.digests)
	}
	// A mismatch fails the op it belongs to; a committed-digest or
	// set-up mismatch has no op of its own, hence the cap.
	incorrect := int64(e.check.count())
	m.failed = min(m.failed+incorrect, m.attempted)

	p, beyond := TailPercentile(len(m.ops))
	meta := map[string]any{
		"workload": workload, "seed": seed, "seconds": seconds, "trace": traced,
		"host":               host,
		"tail_percentile":    p,
		"tail_samples":       len(m.ops),
		"tail_beyond":        beyond,
		"failed_frac":        float64(m.failed) / float64(max(m.attempted, 1)),
		"incorrect":          incorrect,
		"problems":           e.check.problems,
		"committed_checked":  defaultRun && !record,
		"uncommitted_digest": len(unchecked),
		"setup_cpu_ms":       millisAll(m.setup),
		"setup_wall_ms":      millisAll(setupWall),
	}
	for k, v := range m.meta {
		meta[k] = v
	}

	line := resultLine{Correct: incorrect == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metricOut{}}
	wall := wallValues(m, p)
	if traced {
		vals := layerValues(e, m)
		for k, v := range wall {
			vals[k] = v
		}
		for _, d := range perLayer() {
			line.Metrics[d.name] = metricOut{vals[d.name], d.unit}
		}
		if err := writeSpans(e.rec, out, workload, seed); err != nil {
			return err
		}
	} else {
		vals := endToEndValues(m)
		for _, d := range endToEnd {
			line.Metrics[d.name] = metricOut{vals[d.name], d.unit}
		}
		meta["wall"] = wall
	}
	printHuman(line, meta)
	metaLine, err := json.Marshal(map[string]any{"meta": meta})
	if err != nil {
		return err
	}
	resLine, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", metaLine, resLine)
	return nil
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func millisAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = millis(d)
	}
	return out
}

// typicalOp is the median op time in ms. Over a rotation of configs with
// distinct costs it is the mean of the per-config medians instead: the
// pooled median would fall in the gap between two configs' times and
// jump with noise.
func typicalOp(pooled []time.Duration, byConfig [][]time.Duration) float64 {
	if len(byConfig) == 0 {
		return Percentile(millisAll(pooled), 50)
	}
	var sum float64
	for _, ops := range byConfig {
		sum += Percentile(millisAll(ops), 50)
	}
	return sum / float64(len(byConfig))
}

func endToEndValues(m *measured) map[string]float64 {
	v := map[string]float64{
		"setup_s":     Percentile(millisAll(m.setup), 50) / 1e3,
		"peak_rss_mb": peakRSSMiB(),
	}
	if m.cycles > 0 {
		v["cpu_s_per_mcycle"] = m.cpu.Seconds() / (float64(m.cycles) / 1e6)
	}
	return v
}

// wallValues are the wall-clock metrics of wallDefs. In a traced run the
// op latencies come from its untraced ops and the rates from the whole
// window, traced ops included.
func wallValues(m *measured, tail float64) map[string]float64 {
	secs := m.wall.Seconds()
	return map[string]float64{
		"wall.sim_cycles_per_s": float64(m.cycles) / secs,
		"wall.op_p50_ms":        typicalOp(m.ops, m.opsByConfig),
		"wall.op_tail_ms":       Percentile(millisAll(m.ops), tail),
		"wall.sweep_p50_ms":     Percentile(millisAll(m.sweeps), 50),
		"wall.goodput_rps":      float64(m.good) / secs,
	}
}

// layerValues assembles the per-layer metrics from the recorder's spans
// and counts, the runtime deltas and what the workload measured itself.
// A metric whose layer the workload never calls reads 0.
func layerValues(e *env, m *measured) map[string]float64 {
	r := e.rec
	perUnit := func(span, count string) float64 {
		n := r.Count(count)
		if n == 0 {
			return 0
		}
		var total time.Duration
		for _, d := range r.Durations(span) {
			total += d
		}
		return float64(total) / float64(n)
	}
	v := map[string]float64{
		"fabric.build_ms":               medianSpan(r, "fabric.build", time.Millisecond),
		"fabric.warmup_ns_per_cycle":    perUnit("fabric.warmup", "fabric.warmup.cycles"),
		"fabric.step_ns_per_cycle":      perUnit("fabric.step", "fabric.step.cycles"),
		"fabric.step_ns_per_packet":     perUnit("fabric.step", "fabric.step.packets"),
		"fabric.finish_us":              medianSpan(r, "fabric.finish", time.Microsecond),
		"fabric.checkpoint_us":          medianSpan(r, "fabric.checkpoint", time.Microsecond),
		"fabric.restore_us":             medianSpan(r, "fabric.restore", time.Microsecond),
		"batch.plan_us":                 medianSpan(r, "batch.plan", time.Microsecond),
		"hetpnoc.key_us_p50":            medianSpan(r, "hetpnoc.key", time.Microsecond),
		"serve.decode_us_p50":           medianSpan(r, "serve.decode", time.Microsecond),
		"serve.submit_hit_us_p50":       medianSpan(r, "serve.submit.hit", time.Microsecond),
		"serve.submit_miss_ms_p50":      medianSpan(r, "serve.submit.miss", time.Millisecond),
		"serve.submit_coalesced_ms_p50": medianSpan(r, "serve.submit.coalesced", time.Millisecond),
		"runtime.gc_cpu_frac":           m.rt.gcCPUFrac,
		"runtime.gc_cycles":             float64(m.rt.gcCycles),
		"runtime.sched_latency_p99_us":  m.rt.schedLatP99Sec * 1e6,
	}
	if m.cycles > 0 {
		v["runtime.alloc_bytes_per_kcycle"] = float64(m.rt.allocBytes) / (float64(m.cycles) / 1e3)
	}
	if base := typicalOp(m.ops, m.opsByConfig); base > 0 && len(m.tracedOps) > 0 {
		v["trace.overhead_frac"] = typicalOp(m.tracedOps, m.tracedByConfig)/base - 1
	}
	for k, x := range m.layers {
		v[k] = x
	}
	return v
}

// writeSpans writes a traced run's spans to <out>/spans/<workload>-seed<n>.jsonl.
func writeSpans(r *Recorder, out, workload string, seed uint64) error {
	dir := filepath.Join(out, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	if err := r.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printHuman writes a readable summary to standard error.
func printHuman(line resultLine, meta map[string]any) {
	names := make([]string, 0, len(line.Metrics))
	for n := range line.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "workload %v seed %v: correct=%v attempted=%d failed=%d tail=p%v (%v samples, %v beyond)\n",
		meta["workload"], meta["seed"], line.Correct, line.Attempted, line.Failed,
		meta["tail_percentile"], meta["tail_samples"], meta["tail_beyond"])
	for _, n := range names {
		m := line.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-44s %14.6g %s\n", n, m.Value, m.Unit)
	}
	if ps, _ := meta["problems"].([]string); len(ps) > 0 {
		for _, p := range ps {
			fmt.Fprintln(os.Stderr, "  MISMATCH:", p)
		}
	}
}
