package zkvm

// LeakageReport quantifies the zero-knowledge gap of a seal: the
// sampled-check openings reveal a bounded number of trace rows and
// memory-log entries to the verifier. A FRI-compiled STARK (as used by
// the paper's RISC Zero backend) reveals none; this report makes our
// substitution's leakage explicit and measurable. Unopened leaves
// reveal nothing — every committed leaf is individually salted.
type LeakageReport struct {
	// TotalRows and TotalMemEntries are the committed table sizes.
	TotalRows       int
	TotalMemEntries int
	// OpenedRows and OpenedMemEntries count distinct revealed entries:
	// every entry of every opened leaf group.
	OpenedRows       int
	OpenedMemEntries int
	// RowFraction and MemFraction are the revealed fractions.
	RowFraction float64
	MemFraction float64
}

// Leakage computes the report for a receipt. An opening carries its
// whole leaf group, so every entry of an opened group counts as
// revealed, not only the checked one.
func Leakage(r *Receipt) LeakageReport {
	s := &r.Seal
	nRows, nMem := int(s.NumRows), int(s.NumMem)
	rows := map[int]bool{}
	mems := map[int]bool{}
	reveal := func(set map[int]bool, o *Opening, n, base int) {
		g := o.Index / rowsPerLeaf * rowsPerLeaf
		for i := g; i < min(g+rowsPerLeaf, n); i++ {
			set[base+i] = true
		}
	}
	// Sorted-log openings reveal the same underlying accesses in a
	// different order; they count in the same pool, offset by nMem.
	prog := func(o *Opening) { reveal(mems, o, nMem, 0) }
	sorted := func(o *Opening) { reveal(mems, o, nMem, nMem) }
	reveal(rows, &s.FirstRow, nRows, 0)
	reveal(rows, &s.LastRow, nRows, 0)
	if nMem > 0 {
		prog(&s.MemProgFirst)
		sorted(&s.MemSortFirst)
	}
	for i := range s.ExecChecks {
		c := &s.ExecChecks[i]
		reveal(rows, &c.RowI, nRows, 0)
		reveal(rows, &c.RowJ, nRows, 0)
		for j := range c.Mem {
			prog(&c.Mem[j])
		}
	}
	for i := range s.ProdChecks {
		prog(&s.ProdChecks[i].Entry)
	}
	for i := range s.SortChecks {
		sorted(&s.SortChecks[i].EntryI)
		sorted(&s.SortChecks[i].EntryJ)
	}
	rep := LeakageReport{
		TotalRows:        nRows,
		TotalMemEntries:  nMem,
		OpenedRows:       len(rows),
		OpenedMemEntries: len(mems),
	}
	if rep.TotalRows > 0 {
		rep.RowFraction = float64(rep.OpenedRows) / float64(rep.TotalRows)
	}
	if rep.TotalMemEntries > 0 {
		// Sorted and program-order pools double the nominal total.
		rep.MemFraction = float64(rep.OpenedMemEntries) / float64(2*rep.TotalMemEntries)
	}
	return rep
}
