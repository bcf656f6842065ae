// Command perfbench is zkflow's benchmark: four closed-loop workloads
// driven from one process through the modules' public functions, at
// the program's defaults, each measured end to end and, in a separate
// traced run, layer by layer. See README.md for the workloads, the
// metric definitions and the layer-to-end-to-end map.
//
//	bash perfbench/run.sh --workload epoch_stream --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set, with --trace 1 the per-layer set
// (see metrics.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupReps is how many times a run builds its fixture; setup_s is
// the median, so one slow build does not move it.
const setupReps = 3

// bench is one run's shared state: its inputs' seed, its clock, the
// optional tracer and everything the ops measured.
type bench struct {
	seed   int64
	dur    time.Duration
	maxOps int     // stop after this many ops (0 = run for dur)
	tr     *tracer // nil unless --trace 1

	setup  []cost        // per fixture build
	t0     time.Time     // start of the measured loop
	steal0 time.Duration // host steal at t0
	ops    int
	failed int
	passed int
	spent  cost      // inside ops (input generation and checks excluded)
	calib  []float64 // calibration passes (ms), one after each op and build

	// primary holds the costs of the untraced passed ops of the
	// workload's primary kind; primaryTraced those of traced ones.
	primary, primaryTraced []cost
	// report lists the workload's named figures in print order.
	report []named
}

// named is one workload-specific figure.
type named struct {
	name, unit string
	value      float64
}

func newBench(seed int64, dur time.Duration, trace bool) *bench {
	b := &bench{seed: seed, dur: dur}
	if trace {
		b.tr = newTracer()
	}
	return b
}

// rng derives a deterministic stream for one input family from the
// run's seed.
func (b *bench) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(b.seed*7919 + stream))
}

// start begins the measured loop.
func (b *bench) start() {
	b.t0 = time.Now()
	b.steal0, _ = stealTime()
}

// running reports whether op i should start.
func (b *bench) running(i int) bool {
	return time.Since(b.t0) < b.dur && (b.maxOps == 0 || i < b.maxOps)
}

// quantile is the q-quantile (ms) of one clock of the untraced
// primary ops.
func (b *bench) quantile(q float64, clk func(cost) time.Duration) float64 {
	return quantile(msOf(b.primary, clk), q)
}

// rate is passed ops per second spent inside ops, on one clock.
func (b *bench) rate(clk func(cost) time.Duration) float64 {
	if clk(b.spent) <= 0 {
		return 0
	}
	return float64(b.passed) / clk(b.spent).Seconds()
}

// refSpeed is how much faster the reference core runs the
// calibration than this run's host did, over the run (median). The
// bounded metrics scale CPU time by it: on a shared host the same code
// ran up to 35% slower in CPU time for stretches of seconds to minutes
// with no steal recorded, and the calibration slowed with it.
func (b *bench) refSpeed() float64 {
	return ms(refCalibration) / median(b.calib)
}

func wall(c cost) time.Duration { return c.wall }
func cpu(c cost) time.Duration  { return c.cpu }

func msOf(cs []cost, clk func(cost) time.Duration) []float64 {
	xs := make([]float64, len(cs))
	for i, c := range cs {
		xs[i] = ms(clk(c))
	}
	return xs
}

// traced reports whether op i is traced: in a traced run every other
// op, so the untraced ones between them measure tracing overhead
// under the same conditions.
func (b *bench) traced(i int) bool { return b.tr != nil && i%2 == 0 }

// timeSetup builds a fixture setupReps times, closing all but the
// last, and records what each build cost.
func timeSetup[T any](b *bench, build func() (T, error), closeFn func(T)) (T, error) {
	var last T
	for rep := 0; rep < setupReps; rep++ {
		if rep > 0 {
			closeFn(last)
		}
		b.tr.startOp(-1, false)
		c := startClock()
		fx, err := build()
		if err != nil {
			return fx, fmt.Errorf("setup: %w", err)
		}
		b.setup = append(b.setup, c.cost())
		b.calib = append(b.calib, ms(calibration()))
		last = fx
	}
	runtime.GC()
	return last, nil
}

// done records one finished op and what it cost; primary marks an op
// of the workload's primary kind.
func (b *bench) done(i int, c cost, primary bool, err error) {
	b.calib = append(b.calib, ms(calibration()))
	b.ops++
	b.spent = b.spent.add(c)
	if err != nil {
		b.failed++
		if b.failed <= 5 {
			fmt.Fprintf(os.Stderr, "op %d failed: %v\n", i, err)
		}
		return
	}
	b.passed++
	switch {
	case !primary:
	case b.traced(i):
		b.primaryTraced = append(b.primaryTraced, c)
	default:
		b.primary = append(b.primary, c)
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(*bench) error{
	"epoch_stream": func(b *bench) error { return runEpochStream(b, epochStreamDefault) },
	"query_audit":  func(b *bench) error { return runQueryAudit(b, queryAuditDefault) },
	"verify_audit": func(b *bench) error { return runQueryAudit(b, verifyAuditDefault) },
	"ingest_flood": func(b *bench) error { return runIngestFlood(b, ingestFloodDefault) },
}

func main() {
	workload := flag.String("workload", "", "epoch_stream, query_audit, verify_audit or ingest_flood")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	traceOut := flag.String("trace-out", filepath.Join(".bench_build", "perfbench-trace"), "directory for span dumps")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload epoch_stream|query_audit|verify_audit|ingest_flood --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d | nproc=%d GOMAXPROCS=%d %s %s/%s\n",
		*workload, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), runtime.GOOS, runtime.GOARCH)

	b := newBench(*seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err := run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", *workload, err)
		os.Exit(1)
	}
	res := result{Correct: b.failed == 0, Attempted: b.ops, Failed: b.failed}
	if res.Attempted == 0 {
		fmt.Fprintf(os.Stderr, "perfbench %s: no op completed\n", *workload)
		os.Exit(1)
	}

	fmt.Printf("ops %d  ops_failed %d  inside ops %.2f s wall, %.2f s CPU\n", b.ops, b.failed, b.spent.wall.Seconds(), b.spent.cpu.Seconds())
	if share := stealShare(b.steal0, b.t0); share >= 0 {
		fmt.Printf("host steal %.1f%% of vCPU time during the run\n", 100*share)
	}
	for _, n := range append(measuredFigures(b), b.report...) {
		fmt.Printf("  %-24s %14.4f %s\n", n.name, n.value, n.unit)
	}
	if b.tr == nil {
		res.Metrics = endToEnd(b)
	} else {
		vals := b.tr.opValues()
		samples := layerSamples(vals)
		fmt.Printf("self time per layer (%d traced ops):\n", len(vals))
		printSelfTimes(os.Stdout, samples)
		res.Metrics = perLayer(b, vals)
		path := filepath.Join(*traceOut, fmt.Sprintf("%s-seed%d.spans.jsonl", *workload, *seed))
		if err := b.tr.dump(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("spans: %d written to %s\n", len(b.tr.spans), path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
