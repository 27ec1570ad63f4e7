package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"givetake/internal/progen"
)

// place-sweep is the gnt -mode comm library path: Parse → AnalyzeCtx →
// AnnotatedSource, with no static verification, as a closed loop on one
// goroutine over a seeded progen size sweep visited in a fixed shuffled
// order. It loads the front end, the solver and render; the verifier
// does no work here, so a verifier change must not move it.

// placeSizes is the sweep in progen statements, about 30 to 2400
// interval-graph nodes; each size contributes placePerSize programs.
var placeSizes = []int{20, 50, 100, 200, 400, 800, 1600}

const placePerSize = 24

// placeLimit is the latency limit one compile must meet to count as
// goodput; the largest sweep programs take tens of milliseconds.
const placeLimit = time.Second

// generate draws one progen program of about stmts statements.
func generate(rng *rand.Rand, stmts int) string {
	return progen.GenerateSource(rng.Int63(), progen.Config{Stmts: stmts, MaxDepth: 4, Arrays: true})
}

// placeSources generates the sweep corpus for a seed.
func placeSources(seed int64, small bool) []string {
	rng := workloadRand(seed, 1)
	sizes, per := placeSizes, placePerSize
	if small {
		sizes, per = []int{20, 50}, 2
	}
	var out []string
	for _, stmts := range sizes {
		for k := 0; k < per; k++ {
			out = append(out, generate(rng, stmts))
		}
	}
	return out
}

// phaseStats summarizes one timed phase.
type phaseStats struct {
	lat  []float64 // milliseconds per timed operation
	busy time.Duration
	// programs counts programs attempted; ok those answered correctly;
	// good those answered correctly within the workload's latency limit.
	programs, ok, good int
}

// latencyValues reports the phase's latency quantiles and goodput.
func (ps *phaseStats) latencyValues(values map[string]float64) {
	values["latency_p50_ms"] = quantile(ps.lat, 0.50)
	values["latency_p99_ms"] = quantile(ps.lat, 0.99)
	values["goodput_share"] = ratio(float64(ps.good), float64(ps.programs))
	values["run.latency_samples"] = float64(len(ps.lat))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

type placeState struct {
	srcs  []string
	order []int
	warm  []string // annotated output of the warm-up pass
}

func (*placeState) close() {}

func runPlaceSweep(ctx context.Context, cfg config) (*outcome, error) {
	st, setupS, err := timedSetup(func() (*placeState, error) {
		srcs := placeSources(cfg.seed, cfg.small)
		st := &placeState{srcs: srcs, order: workloadRand(cfg.seed, 2).Perm(len(srcs)), warm: make([]string, len(srcs))}
		for i, src := range srcs {
			_, out, err := compile(ctx, src)
			if err != nil {
				return nil, fmt.Errorf("warm-up program %d: %w", i, err)
			}
			st.warm[i] = out
		}
		return st, nil
	})
	if err != nil {
		return nil, err
	}
	out := &outcome{values: map[string]float64{"setup_s": setupS}}
	plain, traced := splitSeconds(cfg)

	cfg.clock.sample()
	cpu := startCPU()
	u := st.loop(ctx, plain, nil, cfg.clock, out)
	_, gcShare := cpu.stop()
	out.values["peak_rss_mb"] = peakRSSMB() // before the gate, whose interp runs are not the workload
	cfg.clock.sample()
	var tr *tracer
	var t phaseStats
	if cfg.trace {
		tr = newTracer(time.Now())
		t = st.loop(ctx, traced, tr, nil, out)
	}

	refs, err := repeatable(ctx, func() []string { return placeSources(cfg.seed, cfg.small) }, nil)
	if err != nil {
		return nil, err
	}
	for i, want := range refs.annotated {
		if st.warm[i] != want {
			out.fail("program %d: warm-up output differs from the reference pass", i)
		}
	}

	v := out.values
	u.latencyValues(v)
	v["programs_per_s"] = ratio(float64(u.ok), u.busy.Seconds())
	v["exec_cost_ratio"] = refs.execRatio
	fmt.Fprintf(cfg.log, "perfbench: place-sweep: %d programs, %d compiles timed (p99 from %d samples, %d beyond it)\n",
		len(st.srcs), len(u.lat), len(u.lat), len(u.lat)/100)
	if tr != nil {
		v["runtime.gc_cpu_share"] = gcShare
		v["trace.overhead_ratio"] = ratio(mean(t.lat), mean(u.lat))
		if err := finishTrace(cfg, tr, refs, v); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// loop compiles programs in the shuffled order until d has passed,
// checking every output against the warm-up pass. With a tracer, each
// compile runs as the traced layer chain inside a place.compile span.
// With a clock, kernel rounds run between compiles, outside the timing.
func (st *placeState) loop(ctx context.Context, d time.Duration, tr *tracer, clock *machineClock, out *outcome) phaseStats {
	var ps phaseStats
	var paused time.Duration
	start := time.Now()
	deadline := start.Add(d)
	for n := 0; ctx.Err() == nil && time.Now().Before(deadline); n++ {
		paused += clock.tick()
		i := st.order[n%len(st.order)]
		t0 := time.Now()
		var got string
		var err error
		if tr == nil {
			_, got, err = compile(ctx, st.srcs[i])
		} else {
			id := tr.begin("place.compile", int64(n), -1)
			var c chainOut
			c, err = tr.chain(ctx, int64(n), id, st.srcs[i], false)
			tr.end(id)
			got = c.annotated
		}
		el := time.Since(t0)
		ps.lat = append(ps.lat, ms(el))
		ps.programs++
		out.attempted++
		switch {
		case err != nil:
			out.fail("program %d: %v", i, err)
		case got != st.warm[i]:
			out.fail("program %d: annotated output differs from the warm-up pass", i)
		default:
			ps.ok++
			if el <= placeLimit {
				ps.good++
			}
		}
	}
	ps.busy = time.Since(start) - paused
	return ps
}

// finishTrace adds the per-layer values every traced run shares and
// writes the spans and the size-bucket table.
func finishTrace(cfg config, tr *tracer, refs *refSet, v map[string]float64) error {
	tr.layerValues(v)
	refs.countValues(v)
	v["trace.spans"] = float64(len(tr.spans))
	base := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err := tr.writeSpans(base + "-spans.jsonl"); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := writeBucketReport(base+"-buckets.txt", cfg.workload, v); err != nil {
		return fmt.Errorf("write bucket table: %w", err)
	}
	return nil
}
