package guest

import (
	"testing"

	"zkflow/internal/zkvm"
)

func BenchmarkAggregationExecute(b *testing.B) {
	words := SteadyInput(1).Words()
	prog := AggregationProgram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := zkvm.Execute(prog, words, zkvm.ExecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Row and memory-entry budget of one epoch_stream-shaped aggregation.
// Both are machine-independent work counters: every trace row and
// every memory entry is committed, sorted and product-checked by the
// prover, so they set the cost of each proven record.
const (
	maxRowsPerRecord = 350
	// maxMemEntries is the exact count at SteadyInput(1); any increase
	// needs a stated reason.
	maxMemEntries = 237342
)

func TestAggregationRowBudget(t *testing.T) {
	in := SteadyInput(1)
	ex, err := zkvm.Execute(AggregationProgram(), in.Words(), zkvm.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.ExitCode != 0 {
		t.Fatalf("guest aborted with code %d", ex.ExitCode)
	}
	records := 0
	for _, r := range in.Routers {
		records += len(r.Records)
	}
	if records != 1000 || len(in.PrevEntries) != 1000 {
		t.Fatalf("input shape %d records over %d entries, want 1000 over 1000", records, len(in.PrevEntries))
	}
	rows, mem := len(ex.Rows), len(ex.MemLog)
	t.Logf("%d rows (%.1f per record), %d memory entries (%.1f per record)",
		rows, float64(rows)/float64(records), mem, float64(mem)/float64(records))
	if rows > maxRowsPerRecord*records {
		t.Errorf("%d rows per 1000 records, budget %d", rows, maxRowsPerRecord*records)
	}
	if mem > maxMemEntries {
		t.Errorf("%d memory entries, budget %d", mem, maxMemEntries)
	}
}
