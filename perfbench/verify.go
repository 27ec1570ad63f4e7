package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"givetake/internal/check"
	"givetake/internal/comm"
	"givetake/internal/engine"
	"givetake/internal/obs"
)

// verify-batch is the full verified analysis through
// engine.AnalyzeBatch with Workers = GOMAXPROCS and no cache, as a
// closed loop: each batch is submitted after the previous one returns.
// Programs are mid-size (60 to 200 statements), where the static
// verifier takes nearly all the time, so the verifier and the engine's
// pipeline executor are what it loads.
//
// Each batch holds one program from each size stratum, so batches carry
// about equal work and batch latency measures the engine, not which
// programs happened to share a batch.

const (
	verifyStrata   = 4
	verifyBatches  = 48
	verifyMinStmts = 60
	verifyMaxStmts = 200
	// verifyChecked is how many batches, taken by index, the reference
	// pass also verifies sequentially for the exact verifier counts.
	verifyChecked = 2
	// verifyWarmSeed generates the warm-up batches, the same on every
	// seed, so set-up does the same work whatever the workload seed;
	// verifyWarmBatches of them make set-up long enough to time.
	verifyWarmSeed    = -1
	verifyWarmBatches = 3
)

// verifyLimit is the latency limit one batch must meet for its programs
// to count as goodput.
const verifyLimit = 10 * time.Second

// verifySources generates a corpus of batches batches; program
// j*verifyStrata+k is batch j's program from stratum k.
func verifySources(seed int64, batches int, small bool) []string {
	rng := workloadRand(seed, 3)
	lo, hi := verifyMinStmts, verifyMaxStmts
	if small {
		batches, lo, hi = min(batches, 2), 20, 40
	}
	width := (hi - lo) / verifyStrata
	var out []string
	for j := 0; j < batches; j++ {
		for k := 0; k < verifyStrata; k++ {
			// Sizes step through each stratum in a fixed stride, coprime
			// with its width, so every seed gets the same spread of sizes
			// and the seed only draws each program's shape. The strata
			// of one batch start a quarter of the width apart, so no
			// batch holds the top of every stratum at once.
			off := (j*verifySizeStride + k*(width+1)/verifyStrata) % (width + 1)
			out = append(out, generate(rng, lo+k*width+off))
		}
	}
	return out
}

const verifySizeStride = 13

type verifyState struct {
	srcs    []string
	batches [][]int // program indices, in submission order
	order   []int   // batch visiting order
	eng     *engine.Engine
	// rendered is each program's annotated output the first time a
	// batch returned it; later passes must match it.
	rendered []string
	// flagged holds the verdicts of the programs whose only verifier
	// errors were WRITE re-production findings (see gateErrors).
	flagged map[int][]string
}

func (s *verifyState) close() { s.eng.Close() }

func (s *verifyState) items(b int) []engine.BatchItem {
	items := make([]engine.BatchItem, len(s.batches[b]))
	for k, i := range s.batches[b] {
		items[k] = engine.BatchItem{Source: s.srcs[i]}
	}
	return items
}

// diagStrings renders a verdict's errors for comparison.
func diagStrings(r *check.Result) []string {
	var out []string
	for _, d := range r.Errors() {
		out = append(out, d.String())
	}
	return out
}

func runVerifyBatch(ctx context.Context, cfg config) (*outcome, error) {
	st, setupS, err := timedSetup(func() (*verifyState, error) {
		srcs := verifySources(cfg.seed, verifyBatches, cfg.small)
		rng := workloadRand(cfg.seed, 4)
		st := &verifyState{
			srcs:     srcs,
			order:    rng.Perm(len(srcs) / verifyStrata),
			rendered: make([]string, len(srcs)),
			flagged:  map[int][]string{},
			eng:      engine.New(engine.Config{Workers: runtime.GOMAXPROCS(0), CacheBytes: -1}),
		}
		for j := range st.order {
			b := make([]int, verifyStrata)
			for k, p := range rng.Perm(verifyStrata) {
				b[k] = j*verifyStrata + p
			}
			st.batches = append(st.batches, b)
		}
		warm := verifySources(verifyWarmSeed, verifyWarmBatches, cfg.small)
		for len(warm) > 0 {
			var items []engine.BatchItem
			for _, src := range warm[:verifyStrata] {
				items = append(items, engine.BatchItem{Source: src})
			}
			warm = warm[verifyStrata:]
			for _, r := range st.eng.AnalyzeBatch(ctx, items, nil) {
				if r.Err != nil {
					st.close()
					return nil, fmt.Errorf("warm-up batch: %w", r.Err)
				}
				r.Res.Release()
			}
		}
		return st, nil
	})
	if err != nil {
		return nil, err
	}
	defer st.close()
	out := &outcome{values: map[string]float64{"setup_s": setupS}}
	plain, traced := splitSeconds(cfg)

	cfg.clock.sample()
	cpu := startCPU()
	u := st.loop(ctx, plain, cfg.clock, out)
	_, gcShare := cpu.stop()
	out.values["peak_rss_mb"] = peakRSSMB() // before the gate, whose interp runs are not the workload
	cfg.clock.sample()
	var tr *tracer
	var t phaseStats
	var trv traceVerify
	if cfg.trace {
		tr = newTracer(time.Now())
		t = st.loopTraced(ctx, traced, tr, out, &trv)
	}

	refs, err := repeatable(ctx, func() []string { return verifySources(cfg.seed, verifyBatches, cfg.small) },
		func(i int) bool { return i < verifyChecked*verifyStrata })
	if err != nil {
		return nil, err
	}
	verified := 0
	for i, got := range st.rendered {
		if got == "" {
			continue
		}
		verified++
		if got != refs.annotated[i] {
			out.fail("program %d: engine output differs from the library reference", i)
		}
	}
	if err := st.confirmFlagged(ctx, out); err != nil {
		return nil, err
	}

	v := out.values
	u.latencyValues(v)
	v["programs_per_s"] = ratio(float64(u.ok), u.busy.Seconds())
	v["exec_cost_ratio"] = refs.execRatio
	fmt.Fprintf(cfg.log, "perfbench: verify-batch: %d programs in batches of %d, %d programs verified in %d timed batches\n",
		len(st.srcs), verifyStrata, u.programs, len(u.lat))
	if tr != nil {
		v["runtime.gc_cpu_share"] = gcShare
		v["trace.overhead_ratio"] = ratio(mean(t.lat), mean(u.lat))
		v["engine.parallel_speedup"] = ratio(float64(trv.serialNS), float64(t.busy.Nanoseconds()))
		v["engine.check_queue_depth_mean"] = ratio(trv.depthSum, float64(trv.depthSamples))
		v["engine.shed"] = float64(st.eng.PipelineShed())
		if err := finishTrace(cfg, tr, refs, v); err != nil {
			return nil, err
		}
		v["check.write_o1_share"] = ratio(float64(len(st.flagged)), float64(verified))
	}
	return out, nil
}

// loop submits batches in the shuffled order until d has passed. Only
// the AnalyzeBatch calls are timed; the verdicts and rendered outputs
// are checked, and the clock's kernel rounds run, between them.
func (s *verifyState) loop(ctx context.Context, d time.Duration, clock *machineClock, out *outcome) phaseStats {
	var ps phaseStats
	deadline := time.Now().Add(d)
	for n := 0; ctx.Err() == nil && time.Now().Before(deadline); n++ {
		clock.tick()
		s.batch(ctx, n, &ps, out)
	}
	return ps
}

// batch runs batch number n of the visiting order, times it, and
// checks every result.
func (s *verifyState) batch(ctx context.Context, n int, ps *phaseStats, out *outcome) int {
	b := s.order[n%len(s.order)]
	items := s.items(b)
	t0 := time.Now()
	res := s.eng.AnalyzeBatch(ctx, items, nil)
	el := time.Since(t0)
	ps.busy += el
	ps.lat = append(ps.lat, ms(el))
	for k, r := range res {
		i := s.batches[b][k]
		ps.programs++
		out.attempted++
		if r.Err != nil {
			out.fail("program %d: %v", i, r.Err)
			continue
		}
		errs, writeO1 := gateErrors(r.Res.Check)
		verdict := diagStrings(r.Res.Check)
		got := r.Res.Analysis.AnnotatedSource(comm.DefaultOptions)
		r.Res.Release()
		switch {
		case len(errs) > 0:
			out.fail("program %d: verifier found %d errors, first: %s", i, len(errs), errs[0])
		case s.rendered[i] != "" && got != s.rendered[i]:
			out.fail("program %d: annotated output differs between passes", i)
		default:
			s.rendered[i] = got
			if writeO1 > 0 {
				s.flagged[i] = verdict
			}
			ps.ok++
			if el <= verifyLimit {
				ps.good++
			}
		}
	}
	return b
}

// confirmFlagged holds the engine's verdict on every program flagged
// with WRITE re-production findings against the sequential verifier's
// verdict on the same program: the engine must report exactly the same
// errors.
func (s *verifyState) confirmFlagged(ctx context.Context, out *outcome) error {
	for i, verdict := range s.flagged {
		a, _, err := compile(ctx, s.srcs[i])
		if err != nil {
			return fmt.Errorf("program %d: %w", i, err)
		}
		res, err := a.CheckPlacementCtx(ctx, nil)
		if err != nil {
			return fmt.Errorf("program %d: check: %w", i, err)
		}
		if want := diagStrings(res); !slices.Equal(verdict, want) {
			out.fail("program %d: engine verdict %q differs from the sequential verifier's %q", i, verdict, want)
		}
	}
	return nil
}

// traceVerify collects what only the traced verify-batch phase
// measures.
type traceVerify struct {
	serialNS     int64 // span time of the serial layer chains
	depthSum     float64
	depthSamples int
}

// loopTraced is loop with a span around each AnalyzeBatch call, the
// check stage's queue depth sampled every millisecond during it, and
// each batch's programs then run again through the serial layer chain,
// whose summed stage time over the batch wall time is the engine's
// parallel speedup.
func (s *verifyState) loopTraced(ctx context.Context, d time.Duration, tr *tracer, out *outcome, trv *traceVerify) phaseStats {
	var ps phaseStats
	deadline := time.Now().Add(d)
	for n := 0; ctx.Err() == nil && time.Now().Before(deadline); n++ {
		id := tr.begin("engine.analyze_batch", int64(n), -1)
		stop := sampleCheckQueue(s.eng, trv)
		b := s.batch(ctx, n, &ps, out)
		stop()
		tr.end(id)
		for _, i := range s.batches[b] {
			c, err := tr.chain(ctx, int64(n), -1, s.srcs[i], true)
			if err != nil {
				out.fail("program %d: serial chain: %v", i, err)
				continue
			}
			if errs, _ := gateErrors(c.check); len(errs) > 0 {
				out.fail("program %d: serial verifier found %d errors", i, len(errs))
			}
			trv.serialNS += c.engineNS
		}
	}
	return ps
}

// sampleCheckQueue samples the check stage's queue depth of eng every
// millisecond until the returned function is called; that function
// returns once the sampler has exited.
func sampleCheckQueue(eng *engine.Engine, trv *traceVerify) func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				for _, st := range eng.PipelineStats() {
					if st.Stage == obs.SpanCheck {
						trv.depthSum += float64(st.QueueDepth)
						trv.depthSamples++
					}
				}
			}
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}
