package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// Small sizes: every workload, end to end, in a few seconds.
var (
	epochStreamSmall = epochStreamConfig{flowsPerRouter: 16, recordsPerRouter: 16, perPacket: 5}
	queryAuditSmall  = queryAuditConfig{flowsPerRouter: 16, recordsPerRouter: 16, perPacket: 5, rounds: 2, mix: [3]int{1, 1, 1}, batch: 1}
	verifyAuditSmall = queryAuditConfig{flowsPerRouter: 16, recordsPerRouter: 16, perPacket: 5, rounds: 2, mix: [3]int{0, 1, 1}, batch: 2}
	ingestFloodSmall = ingestFloodConfig{flowsPerRouter: 64, recordsPerEpoch: 2000, minPer: 1, maxPer: 30}
)

var smallWorkloads = map[string]func(*bench) error{
	"epoch_stream": func(b *bench) error { return runEpochStream(b, epochStreamSmall) },
	"query_audit":  func(b *bench) error { return runQueryAudit(b, queryAuditSmall) },
	"verify_audit": func(b *bench) error { return runQueryAudit(b, verifyAuditSmall) },
	"ingest_flood": func(b *bench) error { return runIngestFlood(b, ingestFloodSmall) },
}

// runSmall runs a small workload for a fixed op count, traced, and
// returns the bench and the per-op values of its traced ops.
func runSmall(t *testing.T, name string, seed int64, ops int) (*bench, map[int]map[string]float64) {
	t.Helper()
	b := newBench(seed, time.Minute, true)
	b.maxOps = ops
	if err := smallWorkloads[name](b); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if b.ops != ops || b.failed != 0 {
		t.Fatalf("%s: %d of %d ops failed", name, b.failed, b.ops)
	}
	return b, b.tr.opValues()
}

// workCounts keeps the per-op values that are work counts rather than
// timings; the queue peak depends on scheduling, so it is not one.
func workCounts(vals map[int]map[string]float64) map[int]map[string]float64 {
	out := map[int]map[string]float64{}
	for op, m := range vals {
		out[op] = map[string]float64{}
		for k, v := range m {
			if !strings.HasSuffix(k, "_ms") && k != "ingest.queue_peak" {
				out[op][k] = v
			}
		}
	}
	return out
}

// TestWorkloadsPassAndRepeat runs every workload twice on one seed:
// each op passes its correctness checks, and the work counts (rows and
// memory ops, receipt, audit and sync bytes, datagrams and records)
// repeat exactly.
func TestWorkloadsPassAndRepeat(t *testing.T) {
	for name := range smallWorkloads {
		t.Run(name, func(t *testing.T) {
			_, first := runSmall(t, name, 7, 6)
			b, second := runSmall(t, name, 7, 6)
			a, c := workCounts(first), workCounts(second)
			if len(a) == 0 {
				t.Fatal("no traced op recorded a work count")
			}
			for op, m := range a {
				if len(m) == 0 {
					t.Errorf("op %d recorded no work count", op)
				}
				for k, v := range m {
					if c[op][k] != v {
						t.Errorf("op %d %s: %v then %v", op, k, v, c[op][k])
					}
				}
			}
			metrics := perLayer(b, second)
			for _, m := range layerMetrics {
				if _, ok := metrics[m.name]; !ok {
					t.Errorf("per-layer metric %s missing", m.name)
				}
			}
		})
	}
}

// TestSeedChangesInputs guards against a seed that is ignored.
func TestSeedChangesInputs(t *testing.T) {
	_, a := runSmall(t, "epoch_stream", 7, 2)
	_, b := runSmall(t, "epoch_stream", 8, 2)
	if a[0]["lightsync.bytes"] == b[0]["lightsync.bytes"] && a[0]["zkvm.rows"] == b[0]["zkvm.rows"] &&
		a[0]["zkvm.receipt_kb"] == b[0]["zkvm.receipt_kb"] {
		t.Error("seeds 7 and 8 produced identical work")
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json lists exactly the
// metrics this program reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("workloads %v, program runs %v", names, want)
	}
	e2e := map[string]string{}
	for _, m := range endToEndMetrics {
		e2e[m.name] = m.unit
	}
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("%d end-to-end metrics listed, program reports %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if e2e[m.Name] != m.Unit {
			t.Errorf("end-to-end %s [%s]: program reports unit %q", m.Name, m.Unit, e2e[m.Name])
		}
	}
	layer := map[string]string{overheadMetric: "%"}
	for _, m := range layerMetrics {
		layer[m.name] = m.unit
	}
	if len(spec.PerLayer) != len(layer) {
		t.Errorf("%d per-layer metrics listed, program reports %d", len(spec.PerLayer), len(layer))
	}
	for _, m := range spec.PerLayer {
		if layer[m.Name] != m.Unit {
			t.Errorf("per-layer %s [%s]: program reports unit %q", m.Name, m.Unit, layer[m.Name])
		}
	}
}

// TestClockSplitsWallAndCPU checks that an op's CPU time counts the
// process running, not waiting: a spin costs CPU, a sleep only wall.
func TestClockSplitsWallAndCPU(t *testing.T) {
	clk := startClock()
	for t0 := time.Now(); time.Since(t0) < 50*time.Millisecond; {
	}
	spin := clk.cost()
	clk = startClock()
	time.Sleep(50 * time.Millisecond)
	sleep := clk.cost()
	if spin.cpu < 25*time.Millisecond || spin.wall < 50*time.Millisecond {
		t.Errorf("50 ms spin cost %v CPU, %v wall", spin.cpu, spin.wall)
	}
	if sleep.cpu > 10*time.Millisecond || sleep.wall < 50*time.Millisecond {
		t.Errorf("50 ms sleep cost %v CPU, %v wall", sleep.cpu, sleep.wall)
	}
}
