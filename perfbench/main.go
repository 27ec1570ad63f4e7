// Command perfbench is the repository's benchmark. It runs one named
// workload against the GIVE-N-TAKE pipeline, with inputs generated
// from a seed, holds every output against independent references, and
// prints its metrics as one JSON line. README.md explains the
// workloads, the metrics and the bounds.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload place-sweep --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1
// it reports the per-layer metrics of a traced run and writes its spans
// and size-bucket table under --out.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// small shrinks every corpus to a few programs, for the package
	// tests; the metrics keep their names and units.
	small  bool
	outDir string
	log    io.Writer
	// clock times the machine-speed kernel around and within the timed
	// section of a closed-loop workload.
	clock *machineClock
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median, which damps a one-off stall.
const setupReps = 5

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int
	failures          []string
	values            map[string]float64
}

// fail records one wrong or failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// result is the JSON object of the last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(context.Context, config) (*outcome, error){
	"place-sweep":  runPlaceSweep,
	"verify-batch": runVerifyBatch,
	"serve-mixed":  runServeMixed,
}

func main() {
	if os.Getenv(loadEnv) != "" {
		os.Exit(loadMain(os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: place-sweep, verify-batch or serve-mixed")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 25, "how long the run measures, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the spans and bucket table of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload place-sweep|verify-batch|serve-mixed, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: float64(*seconds),
		trace: *trace == 1, outDir: *outDir, log: stderr,
	}
	res, err := measure(context.Background(), wl, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs one workload and assembles the result line.
func measure(ctx context.Context, wl func(context.Context, config) (*outcome, error), cfg config) (*result, error) {
	cfg.clock = &machineClock{}
	out, err := wl(ctx, cfg)
	if err != nil {
		return nil, err
	}
	for _, f := range out.failures {
		fmt.Fprintf(cfg.log, "perfbench: %s: wrong output: %s\n", cfg.workload, f)
	}
	// The closed-loop workloads time the kernel; serve-mixed cannot
	// pause its open loop for it and reports its figures as measured.
	slow := cfg.clock.slowdown()
	if slow > 0 {
		fmt.Fprintf(cfg.log, "perfbench: %s: machine slowdown %.4f (kernel round %.2f ms over %d rounds, reference %v)\n",
			cfg.workload, slow, slow*float64(kernelRef.Microseconds())/1000, len(cfg.clock.rounds), kernelRef)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer()
		out.values["run.error_share"] = ratio(float64(out.failed), float64(out.attempted))
		out.values["run.machine_slowdown"] = slow
	} else if slow > 0 {
		atReferenceSpeed(out.values, slow)
	}
	metrics, err := emit(defs, out.values)
	if err != nil {
		return nil, err
	}
	return &result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics,
	}, nil
}

// atReferenceSpeed scales the time-based end-to-end metrics of a run on
// a machine slowed down by slow to the reference speed.
func atReferenceSpeed(v map[string]float64, slow float64) {
	v["setup_s"] /= slow
	v["latency_p50_ms"] /= slow
	v["latency_p99_ms"] /= slow
	v["programs_per_s"] *= slow
}

// closer is a workload state that owns resources.
type closer interface{ close() }

// timedSetup runs setup setupReps times, closes all but the last
// state, and returns it with the median set-up time in seconds. Each
// repetition, and the timed section after the last, starts from a
// collected heap, so set-up garbage is not collected on the clock.
func timedSetup[T closer](setup func() (T, error)) (T, float64, error) {
	var st T
	var secs []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			st.close()
		}
		runtime.GC()
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			return st, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		st = s
	}
	runtime.GC()
	return st, median(secs), nil
}

// splitSeconds returns how long the untraced and traced phases of a run
// last: a traced run spends half its time untraced, so it can report
// its own overhead against an untraced phase of the same process.
func splitSeconds(cfg config) (untraced, traced time.Duration) {
	d := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		return d, 0
	}
	return d / 2, d - d/2
}

// workloadRand returns the workload's input generator for the seed;
// the salt keeps workloads with the same seed apart.
func workloadRand(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + salt))
}

// phaseCPU brackets a timed phase with process CPU time and the
// runtime's GC CPU estimate.
type phaseCPU struct {
	cpu0      time.Duration
	gc0, use0 float64
}

func startCPU() *phaseCPU {
	p := &phaseCPU{cpu0: cpuTime()}
	p.gc0, p.use0 = gcCPU()
	return p
}

// stop returns the process CPU seconds used since start and the share
// of the runtime's busy CPU time that went to GC.
func (p *phaseCPU) stop() (cpuSeconds, gcShare float64) {
	gc, use := gcCPU()
	return (cpuTime() - p.cpu0).Seconds(), ratio(gc-p.gc0, use-p.use0)
}
