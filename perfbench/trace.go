package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"zkflow/internal/core"
	"zkflow/internal/zkvm"
)

// span is one timed call into a layer, recorded by the benchmark
// around the public function it calls (or, for prover stages, reported
// through zkvm.ProveOptions.Observer).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for an op's root span
	Op     int    `json:"op"`     // epoch or request index
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and per-op counts in memory until the run ends.
// The workloads drive one op at a time, so the innermost open span is
// the parent of anything a hook opens — even when the hook runs on the
// HTTP server's goroutine while the client waits. A nil *tracer, or an
// op started untraced, records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	notes map[int]map[string]float64 // op -> count name -> value
	op    int
	on    bool
	cur   int // innermost open span (0 = none)
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), notes: map[int]map[string]float64{}}
}

// startOp begins op id; only ops started with on=true are recorded.
func (t *tracer) startOp(id int, on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op, t.on, t.cur = id, on, 0
	t.mu.Unlock()
}

// begin opens a span under the innermost open one and returns its id
// (0 when not recording).
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: t.cur, Op: t.op, Name: name, Start: now})
	t.cur = id
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.cur = t.spans[id-1].Parent
	t.mu.Unlock()
}

// ObserveStage records a finished prover stage as a child of the
// innermost open span (the zkvm.prove span the prove hook opened).
func (t *tracer) ObserveStage(stage string, d time.Duration) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: t.cur, Op: t.op, Name: "zkvm.stage." + stage, Start: now - d.Nanoseconds(), End: now})
}

// note adds v to a per-op count of the current traced op.
func (t *tracer) note(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return
	}
	m := t.notes[t.op]
	if m == nil {
		m = map[string]float64{}
		t.notes[t.op] = m
	}
	m[name] += v
}

// proveFunc is the prover backend every workload installs through
// core.Options.Prove: zkvm.ProveWithSeed, the prover's deterministic
// entry point, salted from the run's seed and the proof's index so a
// seed reproduces receipts byte for byte (zkvm.ProveAny draws a fresh
// salt per proof, which moves which rows the seal opens and so its
// size). When tracing it also times the proof as a zkvm.prove span,
// routes the stage timings through ProveOptions.Observer, and notes
// the seal's row and memory-op counts.
func proveFunc(seed int64, t *tracer) core.ProveFunc {
	var n atomic.Uint64
	return func(prog *zkvm.Program, input []uint32, po zkvm.ProveOptions) (zkvm.AnyReceipt, error) {
		var salt [32]byte
		binary.LittleEndian.PutUint64(salt[:], uint64(seed))
		binary.LittleEndian.PutUint64(salt[8:], n.Add(1))
		id := t.begin("zkvm.prove")
		if id != 0 {
			po.Observer = t
		}
		r, err := zkvm.ProveWithSeed(prog, input, po, salt)
		t.end(id)
		if err != nil {
			return nil, err
		}
		t.note("zkvm.rows", float64(r.Seal.NumRows))
		t.note("zkvm.mem_ops", float64(r.Seal.NumMem))
		return r, nil
	}
}

// opValues folds the recorded spans into one value map per traced op:
// "<span>_ms" is the op's total time in spans of that name,
// "<span>_self_ms" the part of it no child span covers, plus every
// noted count.
func (t *tracer) opValues() map[int]map[string]float64 {
	out := map[int]map[string]float64{}
	get := func(op int) map[string]float64 {
		m := out[op]
		if m == nil {
			m = map[string]float64{}
			out[op] = m
		}
		return m
	}
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		m := get(s.Op)
		d := float64(s.End-s.Start) / 1e6
		m[s.Name+"_ms"] += d
		m[s.Name+"_self_ms"] += d - covered(children[s.ID])/1e6
	}
	for op, notes := range t.notes {
		m := get(op)
		for k, v := range notes {
			m[k] += v
		}
	}
	return out
}

// covered returns the nanoseconds the union of the spans covers.
func covered(spans []span) float64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, end int64
	var start int64 = -1
	for _, s := range spans {
		switch {
		case start < 0:
			start, end = s.Start, s.End
		case s.Start > end:
			total += end - start
			start, end = s.Start, s.End
		case s.End > end:
			end = s.End
		}
	}
	if start >= 0 {
		total += end - start
	}
	return float64(total)
}

// layerSamples collects, for every value name, its per-op values
// across the traced ops that have it.
func layerSamples(vals map[int]map[string]float64) map[string][]float64 {
	out := map[string][]float64{}
	for _, m := range vals {
		for k, v := range m {
			out[k] = append(out[k], v)
		}
	}
	return out
}

// printSelfTimes prints, for every span name, the median per-op total
// and self time and the number of traced ops it appeared in.
func printSelfTimes(w io.Writer, samples map[string][]float64) {
	var names []string
	for k := range samples {
		if n, ok := strings.CutSuffix(k, "_self_ms"); ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %-28s %6s %12s %12s\n", "span", "ops", "total ms p50", "self ms p50")
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %6d %12.3f %12.3f\n", n, len(samples[n+"_ms"]),
			median(samples[n+"_ms"]), median(samples[n+"_self_ms"]))
	}
}

// dump writes the spans as JSON lines to path.
func (t *tracer) dump(path string) error {
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
