package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"givetake/internal/comm"
	"givetake/internal/ir"
	"givetake/internal/serve"
)

// TestMain lets the test binary stand in for the benchmark binary as
// serve-mixed's load process.
func TestMain(m *testing.M) {
	if os.Getenv(loadEnv) != "" {
		os.Exit(loadMain(os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// short runs one workload on its tiny corpus for one second.
func short(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	cfg := config{
		workload: workload, seed: 3, seconds: 1, trace: trace, small: true,
		outDir: t.TempDir(), log: io.Discard,
	}
	res, err := measure(context.Background(), workloads[workload], cfg)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", workload, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s (trace %v): correct=%v attempted=%d failed=%d", workload, trace, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// benchmarkFile is the part of BENCHMARK.json the metric tables must
// agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestEveryMetricEmitted runs each workload short, untraced and traced,
// and checks that the result carries exactly the metrics BENCHMARK.json
// declares for that mode, each with its declared unit.
func TestEveryMetricEmitted(t *testing.T) {
	bf := readBenchmarkFile(t)
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		layer[m.Name] = m.Unit
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Fatalf("BENCHMARK.json workload %q is not runnable", w.Name)
		}
		for _, trace := range []bool{false, true} {
			want := e2e
			if trace {
				want = layer
			}
			res := short(t, w.Name, trace)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics, BENCHMARK.json declares %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s (trace %v): metric %s missing", w.Name, trace, name)
				} else if got.Unit != unit {
					t.Errorf("%s (trace %v): metric %s has unit %q, BENCHMARK.json says %q", w.Name, trace, name, got.Unit, unit)
				}
			}
		}
	}
}

// TestExactCountsRepeat runs the traced verify-batch twice with the
// same seed: every count-based metric and the executed cost ratio must
// come out identical.
func TestExactCountsRepeat(t *testing.T) {
	counts := []string{
		"sections.items_per_node", "core.evals_per_node", "core.word_ops_per_node",
		"check.contexts_per_node", "check.iterations_per_context", "check.set_ops_per_node",
	}
	a, b := short(t, "verify-batch", true), short(t, "verify-batch", true)
	for _, name := range counts {
		if a.Metrics[name].Value == 0 || a.Metrics[name] != b.Metrics[name] {
			t.Errorf("%s: %v then %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
	}
	x, y := short(t, "verify-batch", false), short(t, "verify-batch", false)
	if x.Metrics["exec_cost_ratio"] != y.Metrics["exec_cost_ratio"] {
		t.Errorf("exec_cost_ratio: %v then %v", x.Metrics["exec_cost_ratio"].Value, y.Metrics["exec_cost_ratio"].Value)
	}
}

const loopSrc = `distributed x(100)
real a(100)
do i = 1, n
  a(i) = x(i)
enddo
`

// dropFirst removes the first communication statement of the given
// operation and half from a statement list, searching nested bodies.
func dropFirst(stmts []ir.Stmt, op, half string) ([]ir.Stmt, bool) {
	for i, s := range stmts {
		switch s := s.(type) {
		case *ir.Comm:
			if s.Op == op && s.Half == half {
				return append(stmts[:i:i], stmts[i+1:]...), true
			}
		case *ir.Do:
			if body, ok := dropFirst(s.Body, op, half); ok {
				s.Body = body
				return stmts, true
			}
		case *ir.If:
			if then, ok := dropFirst(s.Then, op, half); ok {
				s.Then = then
				return stmts, true
			}
			if els, ok := dropFirst(s.Else, op, half); ok {
				s.Else = els
				return stmts, true
			}
		}
	}
	return stmts, false
}

// TestGateRejectsDroppedRecv: a placement whose READ_Recv was dropped
// must fail execution under interp, while the intact placement passes.
func TestGateRejectsDroppedRecv(t *testing.T) {
	a, _, err := compile(context.Background(), loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	naive := comm.NaiveAnnotate(a.Prog, comm.Options{Reads: true, Writes: true})
	if _, err := execCost(a.Annotate(comm.DefaultOptions), naive); err != nil {
		t.Fatalf("intact placement: %v", err)
	}
	broken := a.Annotate(comm.DefaultOptions)
	var ok bool
	broken.Body, ok = dropFirst(broken.Body, "READ", "Recv")
	if !ok {
		t.Fatal("placement has no READ_Recv to drop")
	}
	if _, err := execCost(broken, naive); err == nil || !strings.Contains(err.Error(), "unmatched") {
		t.Fatalf("dropped READ_Recv: want an unmatched-send error, got %v", err)
	}
}

// TestGateRejectsChangedBytes: a place-sweep loop whose reference output
// differs from what the pipeline renders counts every compile of that
// program as failed.
func TestGateRejectsChangedBytes(t *testing.T) {
	_, want, err := compile(context.Background(), loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	st := &placeState{srcs: []string{loopSrc}, order: []int{0}, warm: []string{strings.Replace(want, "READ_Recv", "READ_Send", 1)}}
	out := &outcome{}
	st.loop(context.Background(), 20*time.Millisecond, nil, nil, out)
	if out.attempted == 0 || out.failed != out.attempted {
		t.Fatalf("changed reference: %d of %d compiles failed, want all", out.failed, out.attempted)
	}
}

// TestGateRejectsBadServedAnswer: a served answer with verifier errors,
// or whose annotated text differs from what the library renders at the
// answer's rung, fails the gate.
func TestGateRejectsBadServedAnswer(t *testing.T) {
	_, want, err := compile(context.Background(), loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	noHoist, err := degradedReference(loopSrc, serve.RungNoHoist)
	if err != nil {
		t.Fatal(err)
	}
	if noHoist == want {
		t.Fatal("test program renders the same with and without hoisting")
	}
	body := func(rung, errs int, annotated string) []byte {
		b, _ := json.Marshal(map[string]any{
			"ok": true, "rung": rung, "annotated": annotated,
			"check": map[string]int{"errors": errs},
		})
		return b
	}
	for _, c := range []struct {
		name      string
		rung      int
		errs      int
		annotated string
		good      bool
	}{
		{"full", serve.RungFull, 0, want, true},
		{"full with a verifier error", serve.RungFull, 1, want, false},
		{"full with different text", serve.RungFull, 0, want + "\n", false},
		{"no-hoist", serve.RungNoHoist, 0, noHoist, true},
		{"no-hoist with the full text", serve.RungNoHoist, 0, want, false},
	} {
		err := checkServed(body(c.rung, c.errs, c.annotated), loopSrc, want)
		if c.good && err != nil {
			t.Errorf("%s: %v", c.name, err)
		} else if !c.good && err == nil {
			t.Errorf("%s: bad answer passed", c.name)
		}
	}
}
