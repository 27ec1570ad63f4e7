package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"givetake/internal/comm"
	"givetake/internal/frontend"
	"givetake/internal/obs"
	"givetake/internal/serve"
	"givetake/internal/telemetry"
)

// serve-mixed is an open loop at a fixed rate against an in-process
// serve.Server over a loopback listener. Four requests in five repeat a
// hot set of small and mid programs, zipf-skewed, so they are cache
// hits; the fifth is a never-seen program, a miss that runs the full
// degradation ladder. Every request is timed from when it was due, so
// a stall also charges the requests queued behind it. The load comes
// from a child process (loadclient.go). The rate keeps the server's CPU
// well below saturation, at about a fifth of two cores.
const (
	serveRate      = 100 // requests per second: 2500 in a 25 s run
	serveMissEvery = 5
	serveHot       = 64
	serveMinStmts  = 20
	serveMaxStmts  = 80
	serveZipfS     = 1.1
	serveLimit     = 100 * time.Millisecond
)

// serveReq is one scheduled request.
type serveReq struct {
	Due  time.Duration `json:"due_ns"` // offset from the phase start
	Prog int           `json:"prog"`   // index into serveState.srcs
	Miss bool          `json:"miss"`
}

// serveRecord is what one request got back.
type serveRecord struct {
	// Lat and Lag are completion and send, each measured from the due
	// time.
	Lat    time.Duration     `json:"lat_ns"`
	Lag    time.Duration     `json:"lag_ns"`
	Status int               `json:"status"`
	Cache  string            `json:"cache"`
	Rung   string            `json:"rung"`
	Sum    [sha256.Size]byte `json:"sum"`
	// Body is kept only when it differs from the program's warm-up
	// answer.
	Body []byte `json:"body,omitempty"`
	Err  string `json:"err,omitempty"`
}

// serveSources generates the hot set followed by the pool of programs
// that are each requested once; the pool holds exactly as many
// programs as the run's schedules have misses. Sizes step through the
// range in a fixed stride rather than at random, so every seed's hot
// set and every stretch of misses has the same spread of sizes; the
// seed still draws each program's shape.
func serveSources(cfg config) (srcs []string, nHot int) {
	rng := workloadRand(cfg.seed, 5)
	nHot, lo, hi := serveHot, serveMinStmts, serveMaxStmts
	if cfg.small {
		nHot, hi = 4, 30
	}
	plain, traced := splitSeconds(cfg)
	misses := serveMisses(plain) + serveMisses(traced)
	for i := 0; i < nHot+misses; i++ {
		srcs = append(srcs, generate(rng, lo+(i*serveSizeStride)%(hi-lo+1)))
	}
	return srcs, nHot
}

// serveSizeStride steps program sizes through the statement range. It
// is coprime with the range's length, so it visits every size before
// repeating one.
const serveSizeStride = 37

// serveRequests is the number of requests a phase of d sends.
func serveRequests(d time.Duration) int { return int(d.Seconds() * serveRate) }

// serveMisses is the number of misses in a phase of d.
func serveMisses(d time.Duration) int {
	return (serveRequests(d) + serveMissEvery - 1) / serveMissEvery
}

type serveState struct {
	srcs     []string
	nHot     int
	warmBody [][]byte
	// load is the phase-independent part of every phase's plan: the
	// server's address, the request bodies and the warm-up digests.
	load *loadPlan

	srv      *serve.Server
	spans    *spanHandler
	hs       *http.Server
	serveErr chan error
	client   *http.Client // warm-up and the final scrape only

	rng      *rand.Rand
	zipf     *rand.Zipf
	hotOrder []int
	nextMiss int
}

func (s *serveState) close() {
	s.client.CloseIdleConnections()
	s.hs.Close()
	<-s.serveErr
	s.srv.Close()
}

func newServeState(ctx context.Context, cfg config) (*serveState, error) {
	srcs, nHot := serveSources(cfg)
	s := &serveState{srcs: srcs, nHot: nHot, rng: workloadRand(cfg.seed, 6)}
	s.zipf = rand.NewZipf(s.rng, serveZipfS, 1, uint64(nHot-1))
	s.hotOrder = s.rng.Perm(nHot)
	s.nextMiss = nHot
	workers := runtime.GOMAXPROCS(0)
	s.load = &loadPlan{Workers: workers}
	for _, src := range srcs {
		b, err := json.Marshal(serve.Request{Source: src})
		if err != nil {
			return nil, err
		}
		s.load.Bodies = append(s.load.Bodies, string(b))
	}
	srv, err := serve.New(serve.Config{Workers: workers, DrainGrace: -1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s.srv = srv
	s.spans = &spanHandler{next: srv.Handler()}
	s.hs = &http.Server{Handler: s.spans}
	s.serveErr = make(chan error, 1)
	go func() { s.serveErr <- s.hs.Serve(ln) }()
	s.load.URL = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     workers,
		MaxIdleConnsPerHost: workers,
		DisableCompression:  true,
	}}
	// warm-up: every hot program once, which fills the result cache
	for i := 0; i < nHot; i++ {
		rec := s.load.post(s.client, i, i)
		if rec.Err != "" || rec.Status != http.StatusOK {
			s.close()
			return nil, fmt.Errorf("warm-up program %d: status %d: %s", i, rec.Status, rec.Err)
		}
		s.load.Known = append(s.load.Known, rec.Sum)
		s.warmBody = append(s.warmBody, rec.Body)
	}
	return s, nil
}

// plan schedules a phase of d: fixed spacing at serveRate, every
// serveMissEvery-th request a miss, the rest zipf-drawn from the hot
// set. Misses are spaced further apart than one takes to serve, so no
// two compete with each other and p99 measures one miss's latency
// among hits; with seeded miss positions, pairs of misses landing
// together moved p99 by a quarter from run to run.
func (s *serveState) plan(d time.Duration) []serveReq {
	n := serveRequests(d)
	out := make([]serveReq, n)
	for j := range out {
		out[j].Due = time.Duration(j) * time.Second / serveRate
		if j%serveMissEvery == 0 {
			out[j].Prog, out[j].Miss = s.nextMiss, true
			s.nextMiss++
		} else {
			out[j].Prog = s.hotOrder[s.zipf.Uint64()]
		}
	}
	return out
}

// phaseResult is one phase's records and what the server process spent
// on it.
type phaseResult struct {
	recs []serveRecord
	// cpuS is the server process's CPU seconds from the start of the
	// schedule to its last answer; gcShare the GC share of its busy CPU
	// time over the same span.
	cpuS, gcShare float64
}

// phase runs one schedule from a load process and waits for it to end.
func (s *serveState) phase(ctx context.Context, cfg config, plan []serveReq) (*phaseResult, error) {
	p := *s.load
	p.Reqs = plan
	in, err := json.Marshal(&p)
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), loadEnv+"=1")
	cmd.Stdin = bytes.NewReader(in)
	cmd.Stderr = cfg.log
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start load process: %w", err)
	}
	res, err := readLoad(bufio.NewReader(stdout))
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("load process: %w", err)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("load process: %w", err)
	}
	if len(res.recs) != len(plan) {
		return nil, fmt.Errorf("load process returned %d records for %d requests", len(res.recs), len(plan))
	}
	return res, nil
}

// readLoad follows a load process's output, measuring this process's
// CPU time between its "start" and "done" lines, and decodes the
// records after them.
func readLoad(r *bufio.Reader) (*phaseResult, error) {
	if err := expectLine(r, "start"); err != nil {
		return nil, err
	}
	cpu := startCPU()
	if err := expectLine(r, "done"); err != nil {
		return nil, err
	}
	res := &phaseResult{}
	res.cpuS, res.gcShare = cpu.stop()
	if err := json.NewDecoder(r).Decode(&res.recs); err != nil {
		return nil, fmt.Errorf("decode records: %w", err)
	}
	return res, nil
}

func expectLine(r *bufio.Reader, want string) error {
	line, err := r.ReadString('\n')
	if err != nil {
		return fmt.Errorf("waiting for %q: %w", want, err)
	}
	if got := strings.TrimSpace(line); got != want {
		return fmt.Errorf("got %q, want %q", got, want)
	}
	return nil
}

// spanHandler wraps the server's handler. While a tracer is set, it
// records each scheduled request as a serve.request span keyed by the
// request's index in its phase; otherwise, and for the load process's
// connection set-up, it only passes requests on.
type spanHandler struct {
	next http.Handler
	tr   atomic.Pointer[tracer]
	mu   sync.Mutex // guards the set tracer's spans
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	if tr == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	req, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
	if err != nil {
		h.next.ServeHTTP(w, r)
		return
	}
	h.mu.Lock()
	id := tr.begin("serve.request", req, -1)
	h.mu.Unlock()
	h.next.ServeHTTP(w, r)
	h.mu.Lock()
	tr.end(id)
	h.mu.Unlock()
}

func runServeMixed(ctx context.Context, cfg config) (*outcome, error) {
	st, setupS, err := timedSetup(func() (*serveState, error) { return newServeState(ctx, cfg) })
	if err != nil {
		return nil, err
	}
	defer st.close()
	out := &outcome{values: map[string]float64{"setup_s": setupS}}
	plainD, tracedD := splitSeconds(cfg)

	plain := st.plan(plainD)
	pr, err := st.phase(ctx, cfg, plain)
	if err != nil {
		return nil, err
	}
	out.values["peak_rss_mb"] = peakRSSMB() // before the gate, whose interp runs are not the workload

	var traced []serveReq
	var tpr *phaseResult
	var trv traceVerify
	var spans *tracer
	if cfg.trace {
		traced = st.plan(tracedD)
		spans = newTracer(time.Now())
		st.spans.tr.Store(spans)
		stop := sampleCheckQueue(st.srv.Engine(), &trv)
		tpr, err = st.phase(ctx, cfg, traced)
		stop()
		st.spans.tr.Store(nil)
		if err != nil {
			return nil, err
		}
	}

	srcs := func() []string { s, _ := serveSources(cfg); return s }
	refs, err := repeatable(ctx, srcs, func(i int) bool { return i < st.nHot })
	if err != nil {
		return nil, err
	}
	for i := 0; i < st.nHot; i++ {
		if err := checkServed(st.warmBody[i], st.srcs[i], refs.annotated[i]); err != nil {
			out.fail("hot program %d warm-up: %v", i, err)
		}
	}
	u := st.tally(plain, pr.recs, refs, out)
	v := out.values
	u.latencyValues(v)
	v["latency_p99_ms"] = windowedP99(u.lat)
	v["programs_per_s"] = ratio(float64(u.ok), pr.cpuS)
	v["exec_cost_ratio"] = refs.execRatio
	fmt.Fprintf(cfg.log, "perfbench: serve-mixed: %d requests at %d/s (p99 from %d windows of %d samples, %d beyond it in each), server %.2f CPU-s\n",
		len(plain), serveRate, serveWindows, len(u.lat)/serveWindows, len(u.lat)/serveWindows/100, pr.cpuS)
	if cfg.trace {
		t := st.tally(traced, tpr.recs, refs, out)
		st.serveValues(pr.recs, v)
		if err := st.scrapeAdmission(ctx, v); err != nil {
			return nil, err
		}
		// the layers the misses went through, as serial chains
		for j, r := range traced {
			if !r.Miss {
				continue
			}
			c, err := spans.chain(ctx, int64(len(plain)+j), -1, st.srcs[r.Prog], true)
			if err != nil {
				out.fail("program %d: serial chain: %v", r.Prog, err)
			} else if errs, _ := gateErrors(c.check); len(errs) > 0 {
				out.fail("program %d: serial verifier found %d errors", r.Prog, len(errs))
			}
		}
		v["runtime.gc_cpu_share"] = pr.gcShare
		v["trace.overhead_ratio"] = ratio(quantile(t.lat, 0.5), quantile(u.lat, 0.5))
		v["engine.check_queue_depth_mean"] = ratio(trv.depthSum, float64(trv.depthSamples))
		v["engine.shed"] = float64(st.srv.Engine().PipelineShed())
		if err := finishTrace(cfg, spans, refs, v); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// serveWindows is how many consecutive windows of a phase's schedule
// windowedP99 takes p99 over.
const serveWindows = 5

// windowedP99 is the median over serveWindows consecutive windows of the
// schedule of each window's p99 latency. A burst of host contention
// that covers part of a run moves one or two windows, not the median;
// over a whole 25 s run, p99 moved by a third between runs of one seed.
func windowedP99(lat []float64) float64 {
	var ws []float64
	for w := 0; w < serveWindows; w++ {
		ws = append(ws, quantile(lat[w*len(lat)/serveWindows:(w+1)*len(lat)/serveWindows], 0.99))
	}
	return median(ws)
}

// tally checks every answer of a phase against the references and
// summarizes the phase.
func (s *serveState) tally(plan []serveReq, recs []serveRecord, refs *refSet, out *outcome) phaseStats {
	var ps phaseStats
	for j, r := range recs {
		p := plan[j].Prog
		ps.programs++
		out.attempted++
		ps.lat = append(ps.lat, ms(r.Lat))
		switch {
		case r.Err != "":
			out.fail("request %d: %s", j, r.Err)
			continue
		case r.Status != http.StatusOK:
			out.fail("request %d: status %d", j, r.Status)
			continue
		case r.Body != nil:
			if err := checkServed(r.Body, s.srcs[p], refs.annotated[p]); err != nil {
				out.fail("request %d (program %d, cache %s): %v", j, p, r.Cache, err)
				continue
			}
		}
		ps.ok++
		if r.Rung == serve.RungName(serve.RungFull) && r.Lat <= serveLimit {
			ps.good++
		}
	}
	return ps
}

// checkServed decodes one answer for the program src and holds it
// against the library: a successful placement with no verifier errors
// whose annotated text is byte for byte what the library renders at the
// answer's rung — want at rung full, a rebuild at the other rungs.
func checkServed(body []byte, src, want string) error {
	var resp serve.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode answer: %w", err)
	}
	switch {
	case !resp.OK:
		return fmt.Errorf("answer not ok: %s", resp.Error)
	case resp.Check == nil || resp.Check.Errors != 0:
		return errors.New("answer carries verifier errors or no verdict")
	}
	if resp.Rung != serve.RungFull {
		var err error
		if want, err = degradedReference(src, resp.Rung); err != nil {
			return err
		}
	}
	if resp.Annotated != want {
		return fmt.Errorf("annotated output at rung %s differs from the library reference", serve.RungName(resp.Rung))
	}
	return nil
}

// degradedReference rebuilds a program's placement the way the serve
// ladder builds it at a rung below full, executes it under interp, and
// returns its annotated text. An unmatched send or receive fails it.
func degradedReference(src string, rung int) (string, error) {
	prog, err := frontend.Parse(src)
	if err != nil {
		return "", fmt.Errorf("parse: %w", err)
	}
	var a *comm.Analysis
	opt := comm.DefaultOptions
	switch rung {
	case serve.RungNoHoist:
		a, err = comm.AnalyzeOpts(context.Background(), prog, nil, comm.Opts{SuppressHoist: true})
	case serve.RungAtomic:
		a, err = comm.AtomicFallback(prog, nil)
		opt = comm.Options{Reads: true, Writes: true}
	default:
		return "", fmt.Errorf("answer names unknown rung %d", rung)
	}
	if err != nil {
		return "", fmt.Errorf("rebuild at rung %s: %w", serve.RungName(rung), err)
	}
	if _, err := runBalanced(a.Annotate(opt)); err != nil {
		return "", fmt.Errorf("rung %s reference: %w", serve.RungName(rung), err)
	}
	return a.AnnotatedSource(opt), nil
}

// serveValues reports the serve layer's split of a phase by cache
// outcome and rung.
func (s *serveState) serveValues(recs []serveRecord, v map[string]float64) {
	var hit, miss, lag []float64
	full := 0
	for _, r := range recs {
		lag = append(lag, ms(r.Lag))
		switch r.Cache {
		case "hit":
			hit = append(hit, ms(r.Lat))
		case "miss":
			miss = append(miss, ms(r.Lat))
		}
		if r.Rung == serve.RungName(serve.RungFull) {
			full++
		}
	}
	v["serve.hit_latency_p50_ms"] = quantile(hit, 0.5)
	v["serve.miss_latency_p50_ms"] = quantile(miss, 0.5)
	v["serve.miss_latency_p99_ms"] = quantile(miss, 0.99)
	v["serve.cache_hit_ratio"] = ratio(float64(len(hit)), float64(len(recs)))
	v["serve.rung_full_share"] = ratio(float64(full), float64(len(recs)))
	v["serve.gen_lag_p99_ms"] = quantile(lag, 0.99)
}

// scrapeAdmission reads the mean admission-queue wait of admitted
// requests from one /metrics scrape.
func (s *serveState) scrapeAdmission(ctx context.Context, v map[string]float64) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.load.URL+"/metrics", nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	fams, err := telemetry.ParseExposition(resp.Body)
	if err != nil {
		return fmt.Errorf("parse /metrics: %w", err)
	}
	var sum, count float64
	if f := fams[obs.MetricAdmissionWait]; f != nil {
		for _, smp := range f.Samples {
			if smp.Labels["outcome"] != "won" {
				continue
			}
			switch smp.Name {
			case obs.MetricAdmissionWait + "_sum":
				sum = smp.Value
			case obs.MetricAdmissionWait + "_count":
				count = smp.Value
			}
		}
	}
	v["serve.admission_wait_ms_mean"] = ratio(sum*1000, count)
	return nil
}
