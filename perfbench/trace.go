package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"givetake/internal/check"
	"givetake/internal/comm"
	"givetake/internal/frontend"
	"givetake/internal/ir"
)

// span is one recorded call into a layer's public entry point. Spans
// of one operation share Req; Parent indexes the enclosing span of the
// same tracer, or is -1.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs int64  `json:"allocs"`
	Nodes  int    `json:"nodes,omitempty"`
}

// tracer keeps the spans of one goroutine in memory. Allocation counts
// are runtime/metrics deltas, so they are exact only where nothing else
// allocates concurrently: the serial layer chains.
type tracer struct {
	t0     time.Time
	allocs *allocCounter
	spans  []span
}

func newTracer(t0 time.Time) *tracer {
	return &tracer{t0: t0, allocs: newAllocCounter()}
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, req int64, parent int) int {
	t.spans = append(t.spans, span{
		Name: name, Req: req, Parent: parent,
		Allocs: int64(t.allocs.read()),
		Start:  time.Since(t.t0).Nanoseconds(),
	})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	s := &t.spans[id]
	s.End = time.Since(t.t0).Nanoseconds()
	s.Allocs = int64(t.allocs.read()) - s.Allocs
}

// merge appends other's spans, keeping their parent links.
func (t *tracer) merge(other *tracer) {
	off := len(t.spans)
	for _, s := range other.spans {
		if s.Parent >= 0 {
			s.Parent += off
		}
		t.spans = append(t.spans, s)
	}
}

// Layer span names. Each is the metric prefix of its layer, except the
// two solve halves, which report together as core.solve.
const (
	spanParse      = "frontend.parse"
	spanCFG        = "cfg.build"
	spanIntervals  = "interval.reduce"
	spanUniverse   = "sections.universe"
	spanSolveRead  = "core.solve_read"
	spanSolveWrite = "core.solve_write"
	spanCheck      = "check.verify"
	spanRender     = "comm.render"
)

// layerOf maps a span name to the layer metric prefix it reports
// under, or "" for spans that are not a single layer's call.
func layerOf(name string) string {
	switch name {
	case spanSolveRead, spanSolveWrite:
		return "core.solve"
	case spanParse, spanCFG, spanIntervals, spanUniverse, spanCheck, spanRender:
		return name
	}
	return ""
}

// chainOut is what one traced run of the layer chain produced.
type chainOut struct {
	annotated string
	check     *check.Result
	nodes     int
	// engineNS is the span time of the stages the engine's batch path
	// runs (every stage but render).
	engineNS int64
}

// chain runs one program through every layer's public entry point in
// pipeline order, one span per call: the same composition as
// comm.AnalyzeCtx followed by CheckPlacementCtx (when verify is set)
// and AnnotatedSource.
func (t *tracer) chain(ctx context.Context, req int64, parent int, src string, verify bool) (chainOut, error) {
	var out chainOut
	var ids []int
	step := func(name string, f func() error) error {
		id := t.begin(name, req, parent)
		err := f()
		t.end(id)
		ids = append(ids, id)
		return err
	}
	var prog *ir.Program
	var a *comm.Analysis
	err := step(spanParse, func() (err error) {
		prog, err = frontend.Parse(src)
		return err
	})
	if err == nil {
		err = step(spanCFG, func() (err error) {
			a, err = comm.StageCFG(ctx, prog, nil)
			return err
		})
	}
	if err == nil {
		err = step(spanIntervals, func() error { return a.StageIntervals(ctx, nil) })
	}
	if err == nil {
		err = step(spanUniverse, func() error { return a.StageUniverse(ctx, nil) })
	}
	if err == nil {
		err = step(spanSolveRead, func() error { return a.SolveRead(ctx, nil, nil) })
	}
	if err == nil {
		err = step(spanSolveWrite, func() error { return a.SolveWrite(ctx, nil, nil) })
	}
	if err == nil && verify {
		err = step(spanCheck, func() (err error) {
			out.check, err = a.CheckPlacementCtx(ctx, nil)
			return err
		})
	}
	if err == nil {
		err = step(spanRender, func() error {
			out.annotated = a.AnnotatedSource(comm.DefaultOptions)
			return nil
		})
	}
	if err != nil {
		return out, err
	}
	out.nodes = len(a.Graph.Nodes)
	for _, id := range ids {
		s := &t.spans[id]
		s.Nodes = out.nodes
		if s.Name != spanRender {
			out.engineNS += s.End - s.Start
		}
	}
	return out, nil
}

// layerSum accumulates the self time and allocations of one layer's
// spans and the node count they covered.
type layerSum struct {
	ns, allocs, nodes float64
}

// layerValues turns the recorded layer spans into per-node metrics,
// overall and per size bucket. A span's self time is its duration
// minus the time its child spans cover.
func (t *tracer) layerValues(values map[string]float64) {
	childNS := make([]int64, len(t.spans))
	childAllocs := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childNS[s.Parent] += s.End - s.Start
			childAllocs[s.Parent] += s.Allocs
		}
	}
	sums := map[string]*layerSum{}
	add := func(key string, ns, allocs int64, nodes int) {
		ls := sums[key]
		if ls == nil {
			ls = &layerSum{}
			sums[key] = ls
		}
		ls.ns += float64(ns)
		ls.allocs += float64(allocs)
		ls.nodes += float64(nodes)
	}
	for i, s := range t.spans {
		layer := layerOf(s.Name)
		if layer == "" || s.Nodes == 0 {
			continue
		}
		ns := s.End - s.Start - childNS[i]
		allocs := s.Allocs - childAllocs[i]
		add(layer, ns, allocs, s.Nodes)
		add(layer+"|"+bucketOf(s.Nodes), ns, allocs, s.Nodes)
	}
	for key, ls := range sums {
		layer, bucket, split := strings.Cut(key, "|")
		nodes := ls.nodes
		if layer == "core.solve" {
			nodes /= 2 // each program contributes a read and a write span
		}
		suffix := ""
		if split {
			suffix = "." + bucket
		}
		values[layer+"_ns_per_node"+suffix] = ratio(ls.ns, nodes)
		values[layer+"_allocs_per_node"+suffix] = ratio(ls.allocs, nodes)
	}
}

// writeSpans writes the spans as JSON lines to path.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeBucketReport writes the size-bucket table of a traced run: one
// row per bucketed metric, one column per bucket, so the per-node cost
// of each layer reads as a line over program size.
func writeBucketReport(path, title string, values map[string]float64) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: per-layer cost by size bucket (interval-graph nodes ≤ bucket bound)\n", title)
	fmt.Fprintf(&b, "%-32s", "metric")
	for _, bk := range buckets {
		fmt.Fprintf(&b, " %12s", bk.name)
	}
	b.WriteByte('\n')
	for _, m := range bucketed {
		fmt.Fprintf(&b, "%-32s", m.name)
		for i, bk := range buckets {
			if i < m.top {
				fmt.Fprintf(&b, " %12.1f", values[m.name+"."+bk.name])
			} else {
				fmt.Fprintf(&b, " %12s", "-")
			}
		}
		b.WriteByte('\n')
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
