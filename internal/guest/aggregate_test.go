package guest

import (
	"errors"
	"math/rand"
	"testing"

	"zkflow/internal/clog"
	"zkflow/internal/ledger"
	"zkflow/internal/netflow"
	"zkflow/internal/trafficgen"
	"zkflow/internal/vmtree"
	"zkflow/internal/zkvm"
)

// commitOf computes a batch's commitment in guest digest form.
func commitOf(recs []netflow.Record) vmtree.Digest {
	return vmtree.FromBytes(ledger.CommitRecords(recs))
}

// genBatches produces deterministic per-router batches.
func genBatches(seed int64, routers, perRouter int) []RouterBatch {
	gens := trafficgen.PerRouter(trafficgen.Config{Seed: seed, NumFlows: 32, Routers: routers, LossRate: 0.02})
	out := make([]RouterBatch, routers)
	for i, g := range gens {
		recs := g.Batch(uint32(i), 0, perRouter)
		out[i] = RouterBatch{ID: uint32(i), Commitment: commitOf(recs), Records: recs}
	}
	return out
}

// runAgg executes the aggregation guest and returns the execution.
func runAgg(t *testing.T, in *AggInput) (*zkvm.Execution, error) {
	t.Helper()
	return zkvm.Execute(AggregationProgram(), in.Words(), zkvm.ExecOptions{})
}

func prevRootOf(entries []clog.Entry) vmtree.Digest {
	return vmtree.Root(EntryWordsOf(entries))
}

func TestAggregationGenesisRound(t *testing.T) {
	batches := genBatches(1, 4, 10)
	in := &AggInput{Routers: batches} // zero prev root, empty prev
	ex, err := runAgg(t, in)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if ex.ExitCode != 0 {
		t.Fatalf("guest aborted with code %d", ex.ExitCode)
	}
	j, err := ParseAggJournal(ex.Journal)
	if err != nil {
		t.Fatalf("parse journal: %v", err)
	}
	// Differential check against the host-side reference.
	var all [][]netflow.Record
	for _, b := range batches {
		all = append(all, b.Records)
	}
	want := ReferenceAggregate(nil, all...)
	if int(j.NewCount) != len(want) {
		t.Fatalf("guest produced %d entries, reference %d", j.NewCount, len(want))
	}
	wantRoot := prevRootOf(want)
	if j.NewRoot != wantRoot {
		t.Fatalf("guest root %v, reference %v", j.NewRoot.Bytes(), wantRoot.Bytes())
	}
	// Leaf digests must match the reference entries in order.
	wantDigs := vmtree.LeafDigests(EntryWordsOf(want))
	for i := range wantDigs {
		if j.LeafDigests[i] != wantDigs[i] {
			t.Fatalf("leaf digest %d mismatch", i)
		}
	}
	if j.NumRecords != 40 || j.NumRouters != 4 || j.PrevCount != 0 {
		t.Fatalf("journal header: %+v", j)
	}
}

func TestAggregationSecondRound(t *testing.T) {
	round1 := genBatches(2, 4, 8)
	var all1 [][]netflow.Record
	for _, b := range round1 {
		all1 = append(all1, b.Records)
	}
	prev := ReferenceAggregate(nil, all1...)

	round2 := genBatches(3, 4, 8)
	in := &AggInput{
		PrevRoot:    prevRootOf(prev),
		Routers:     round2,
		PrevEntries: prev,
	}
	ex, err := runAgg(t, in)
	if err != nil {
		t.Fatal(err)
	}
	if ex.ExitCode != 0 {
		t.Fatalf("abort code %d", ex.ExitCode)
	}
	j, err := ParseAggJournal(ex.Journal)
	if err != nil {
		t.Fatal(err)
	}
	var all2 [][]netflow.Record
	for _, b := range round2 {
		all2 = append(all2, b.Records)
	}
	want := ReferenceAggregate(prev, all2...)
	if int(j.NewCount) != len(want) {
		t.Fatalf("guest %d entries, reference %d", j.NewCount, len(want))
	}
	if j.NewRoot != prevRootOf(want) {
		t.Fatal("second-round root mismatch")
	}
	if j.PrevRoot != in.PrevRoot {
		t.Fatal("journaled prev root differs from input")
	}
}

func TestAggregationAbortsOnTamperedRecord(t *testing.T) {
	batches := genBatches(4, 2, 6)
	// Tamper AFTER commitment: flip a byte-equivalent in one record.
	batches[1].Records[3].Packets ^= 1
	in := &AggInput{Routers: batches}
	ex, err := runAgg(t, in)
	if err != nil {
		t.Fatal(err)
	}
	if ex.ExitCode != AbortCommitMismatch {
		t.Fatalf("exit %d, want AbortCommitMismatch", ex.ExitCode)
	}
	// And proving refuses.
	if _, err := zkvm.Prove(AggregationProgram(), in.Words(), zkvm.ProveOptions{Checks: 2}); err == nil {
		t.Fatal("tampered input produced a receipt")
	} else {
		var abort *zkvm.GuestAbortError
		if !errors.As(err, &abort) {
			t.Fatalf("want GuestAbortError, got %v", err)
		}
	}
}

func TestAggregationAbortsOnWrongCommitment(t *testing.T) {
	batches := genBatches(5, 2, 6)
	batches[0].Commitment[0] ^= 1
	ex, err := runAgg(t, &AggInput{Routers: batches})
	if err != nil {
		t.Fatal(err)
	}
	if ex.ExitCode != AbortCommitMismatch {
		t.Fatalf("exit %d", ex.ExitCode)
	}
}

func TestAggregationAbortsOnTamperedPrevEntry(t *testing.T) {
	round1 := genBatches(6, 2, 8)
	var all [][]netflow.Record
	for _, b := range round1 {
		all = append(all, b.Records)
	}
	prev := ReferenceAggregate(nil, all...)
	root := prevRootOf(prev)
	prev[2].Bytes += 1000 // retroactive modification of the aggregate
	ex, err := runAgg(t, &AggInput{PrevRoot: root, Routers: genBatches(7, 2, 4), PrevEntries: prev})
	if err != nil {
		t.Fatal(err)
	}
	if ex.ExitCode != AbortPrevRootMismatch {
		t.Fatalf("exit %d, want AbortPrevRootMismatch", ex.ExitCode)
	}
}

func TestAggregationAbortsOnUnsortedPrev(t *testing.T) {
	round1 := genBatches(8, 2, 8)
	var all [][]netflow.Record
	for _, b := range round1 {
		all = append(all, b.Records)
	}
	prev := ReferenceAggregate(nil, all...)
	if len(prev) < 2 {
		t.Skip("need at least two entries")
	}
	prev[0], prev[1] = prev[1], prev[0]
	ex, err := runAgg(t, &AggInput{PrevRoot: prevRootOf(prev), Routers: genBatches(9, 2, 4), PrevEntries: prev})
	if err != nil {
		t.Fatal(err)
	}
	if ex.ExitCode != AbortPrevUnsorted {
		t.Fatalf("exit %d, want AbortPrevUnsorted", ex.ExitCode)
	}
}

func TestAggregationEmptyRound(t *testing.T) {
	// No routers, no records, empty prev: produces an empty CLog.
	ex, err := runAgg(t, &AggInput{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.ExitCode != 0 {
		t.Fatalf("exit %d", ex.ExitCode)
	}
	j, err := ParseAggJournal(ex.Journal)
	if err != nil {
		t.Fatal(err)
	}
	if j.NewCount != 0 || j.NewRoot != vmtree.Zero {
		t.Fatalf("empty round journal: %+v", j)
	}
}

func TestAggregationSingleRecord(t *testing.T) {
	g := trafficgen.New(trafficgen.Config{Seed: 10, NumFlows: 4})
	recs := g.Batch(0, 0, 1)
	in := &AggInput{Routers: []RouterBatch{{ID: 0, Commitment: commitOf(recs), Records: recs}}}
	ex, err := runAgg(t, in)
	if err != nil {
		t.Fatal(err)
	}
	if ex.ExitCode != 0 {
		t.Fatalf("exit %d", ex.ExitCode)
	}
	j, _ := ParseAggJournal(ex.Journal)
	want := ReferenceAggregate(nil, recs)
	if j.NewCount != 1 || j.NewRoot != prevRootOf(want) {
		t.Fatalf("single-record journal: %+v", j)
	}
}

func TestAggregationChainsJournalHash(t *testing.T) {
	var chain vmtree.Digest
	for i := range chain {
		chain[i] = uint32(i + 101)
	}
	batches := genBatches(11, 1, 3)
	ex, err := runAgg(t, &AggInput{PrevJournalHash: chain, Routers: batches})
	if err != nil {
		t.Fatal(err)
	}
	j, err := ParseAggJournal(ex.Journal)
	if err != nil {
		t.Fatal(err)
	}
	if j.PrevJournalHash != chain {
		t.Fatal("chained journal hash not preserved")
	}
}

func TestAggregationDuplicateKeysAcrossRouters(t *testing.T) {
	// Both routers observe the same flow; counters must sum.
	rec := netflow.Record{
		Key:     netflow.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6},
		Packets: 10, Bytes: 100, Dropped: 1, HopCount: 2,
		RTTMicros: 500, JitterMicros: 50, StartUnix: 1, EndUnix: 2,
	}
	r2 := rec
	r2.RouterID = 1
	r2.RTTMicros = 900
	b := []RouterBatch{
		{ID: 0, Commitment: commitOf([]netflow.Record{rec}), Records: []netflow.Record{rec}},
		{ID: 1, Commitment: commitOf([]netflow.Record{r2}), Records: []netflow.Record{r2}},
	}
	ex, err := runAgg(t, &AggInput{Routers: b})
	if err != nil {
		t.Fatal(err)
	}
	if ex.ExitCode != 0 {
		t.Fatalf("exit %d", ex.ExitCode)
	}
	j, _ := ParseAggJournal(ex.Journal)
	if j.NewCount != 1 {
		t.Fatalf("expected 1 merged entry, got %d", j.NewCount)
	}
	want := ReferenceAggregate(nil, []netflow.Record{rec}, []netflow.Record{r2})
	if j.NewRoot != prevRootOf(want) {
		t.Fatal("merged entry root mismatch")
	}
	if want[0].RTTMax != 900 || want[0].RTTSum != 1400 || want[0].Count != 2 {
		t.Fatalf("reference policy wrong: %+v", want[0])
	}
}

func TestAggregationProveVerify(t *testing.T) {
	batches := genBatches(12, 2, 5)
	in := &AggInput{Routers: batches}
	prog := AggregationProgram()
	r, err := zkvm.Prove(prog, in.Words(), zkvm.ProveOptions{Checks: 8})
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	if err := zkvm.Verify(prog, r, zkvm.VerifyOptions{}); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if _, err := ParseAggJournal(r.Journal); err != nil {
		t.Fatal(err)
	}
}

func TestParseAggJournalRejectsGarbage(t *testing.T) {
	if _, err := ParseAggJournal(nil); err == nil {
		t.Fatal("empty journal accepted")
	}
	if _, err := ParseAggJournal(make([]uint32, 5)); err == nil {
		t.Fatal("truncated journal accepted")
	}
	// A huge claimed count must not cause an allocation explosion.
	words := make([]uint32, 30)
	words[18] = 0xffffffff // router count position
	if _, err := ParseAggJournal(words); err == nil {
		t.Fatal("implausible journal accepted")
	}
}

func TestReferenceAggregateMatchesCLog(t *testing.T) {
	batches := genBatches(13, 3, 10)
	var all [][]netflow.Record
	c := clog.New()
	for _, b := range batches {
		all = append(all, b.Records)
		c.MergeBatch(b.Records)
	}
	ref := ReferenceAggregate(nil, all...)
	es := c.Entries()
	if len(ref) != len(es) {
		t.Fatalf("%d vs %d entries", len(ref), len(es))
	}
	for i := range ref {
		if ref[i] != es[i] {
			t.Fatalf("entry %d: %+v vs %+v", i, ref[i], es[i])
		}
	}
}

// permOffset returns the tape index of the first sort-permutation word
// in in.Words(): the 20 header words, then per router its ID, 8
// commitment words, record count and records.
func permOffset(in *AggInput) int {
	off := 8 + 8 + 1 + 3
	for _, r := range in.Routers {
		off += 1 + 8 + 1 + len(r.Records)*recW
	}
	return off
}

// runTape executes the aggregation guest on a raw tape and returns its
// exit code.
func runTape(t *testing.T, words []uint32) uint32 {
	t.Helper()
	ex, err := zkvm.Execute(AggregationProgram(), words, zkvm.ExecOptions{})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	return ex.ExitCode
}

func TestAggregationAbortsOnCountMismatch(t *testing.T) {
	in := &AggInput{Routers: genBatches(14, 3, 5)}
	for _, delta := range []uint32{1, ^uint32(0)} { // declare m+1, then m-1
		words := in.Words()
		words[8+8+1+1] += delta // declared total record count
		if code := runTape(t, words); code != AbortCountMismatch {
			t.Fatalf("declared m%+d: exit %d, want AbortCountMismatch", int32(delta), code)
		}
	}
}

func TestAggregationAbortsOnBadPermutation(t *testing.T) {
	in := &AggInput{Routers: genBatches(15, 3, 6)}
	m := uint32(3 * 6)
	base := in.Words()
	off := permOffset(in)
	// Find sorted positions i, i+1 whose keys differ strictly, so that
	// swapping them breaks the order.
	var recs []netflow.Record
	for _, r := range in.Routers {
		recs = append(recs, r.Records...)
	}
	swap := -1
	for i := 0; i+1 < int(m); i++ {
		if recs[base[off+i]].Key.Less(recs[base[off+i+1]].Key) {
			swap = i
			break
		}
	}
	if swap < 0 {
		t.Fatal("input has no two distinct keys")
	}
	cases := []struct {
		name   string
		tamper func(w []uint32)
	}{
		{"index equals m", func(w []uint32) { w[off] = m }},
		{"index far past m", func(w []uint32) { w[off+int(m)-1] = 0xffffffff }},
		{"index reused", func(w []uint32) { w[off+1] = w[off] }},
		{"index reused last", func(w []uint32) { w[off+int(m)-1] = w[off+int(m)-2] }},
		{"unsorted keys", func(w []uint32) { w[off+swap], w[off+swap+1] = w[off+swap+1], w[off+swap] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			words := append([]uint32(nil), base...)
			tc.tamper(words)
			if code := runTape(t, words); code != AbortBadPermutation {
				t.Fatalf("exit %d, want AbortBadPermutation", code)
			}
		})
	}
}

// edgeKeys returns flow keys that pairwise differ in exactly one key
// word (each of the four), plus the all-zero and all-ones keys, so that
// sorting, the previous-CLog order check and the merge reach every
// early exit of the key comparison.
func edgeKeys(rng *rand.Rand) []netflow.FlowKey {
	base := netflow.FlowKey{
		SrcIP: rng.Uint32() | 1, DstIP: rng.Uint32() | 1,
		SrcPort: uint16(rng.Intn(1 << 16)), DstPort: uint16(rng.Intn(1<<16-1)) | 1,
		Proto: uint8(1 + rng.Intn(200)),
	}
	keys := []netflow.FlowKey{base, {}, {SrcIP: 0xffffffff, DstIP: 0xffffffff, SrcPort: 0xffff, DstPort: 0xffff, Proto: 0xff}}
	for w := 0; w < netflow.KeyWords; w++ {
		for _, d := range []int{-1, 1} {
			k := base
			switch w {
			case 0:
				k.SrcIP += uint32(d)
			case 1:
				k.DstIP += uint32(d)
			case 2:
				k.DstPort += uint16(d)
			case 3:
				k.Proto += uint8(d)
			}
			keys = append(keys, k)
		}
	}
	return keys
}

// edgeRecord draws a record on one of keys whose counters are random,
// 0xffffffff (so additive merges wrap) or zero.
func edgeRecord(rng *rand.Rand, keys []netflow.FlowKey) netflow.Record {
	word := func() uint32 {
		switch rng.Intn(4) {
		case 0:
			return 0xffffffff
		case 1:
			return 0
		default:
			return rng.Uint32()
		}
	}
	return netflow.Record{
		Key: keys[rng.Intn(len(keys))], Packets: word(), Bytes: word(), Dropped: word(), HopCount: word(),
		RTTMicros: word(), JitterMicros: word(), StartUnix: word(), EndUnix: word(), RouterID: word(),
	}
}

// TestAggregationDifferential runs the guest against ReferenceAggregate
// on seeded edge-case inputs: keys that differ in one word only, the
// all-ones key, wrapping counters, empty and non-empty previous CLogs,
// and commitments or previous roots corrupted in one word (so every
// early exit of the digest comparison aborts the run).
func TestAggregationDifferential(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keys := edgeKeys(rng)
		var prev []clog.Entry
		if rng.Intn(3) > 0 {
			batch := make([]netflow.Record, 1+rng.Intn(12))
			for i := range batch {
				batch[i] = edgeRecord(rng, keys)
			}
			prev = ReferenceAggregate(nil, batch)
		}
		in := &AggInput{PrevRoot: prevRootOf(prev), Epoch: uint32(seed), PrevEntries: prev}
		for i := range in.PrevJournalHash {
			in.PrevJournalHash[i] = rng.Uint32()
		}
		var batches [][]netflow.Record
		for r := 0; r < 1+rng.Intn(3); r++ {
			recs := make([]netflow.Record, rng.Intn(8))
			for i := range recs {
				recs[i] = edgeRecord(rng, keys)
			}
			batches = append(batches, recs)
			in.Routers = append(in.Routers, RouterBatch{ID: uint32(r) + 7, Commitment: commitOf(recs), Records: recs})
		}
		wantCode := uint32(0)
		switch rng.Intn(5) {
		case 0:
			in.Routers[rng.Intn(len(in.Routers))].Commitment[rng.Intn(8)] ^= 1 << rng.Intn(32)
			wantCode = AbortCommitMismatch
		case 1:
			in.PrevRoot[rng.Intn(8)] ^= 1 << rng.Intn(32)
			wantCode = AbortPrevRootMismatch
		}

		ex, err := runAgg(t, in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if ex.ExitCode != wantCode {
			t.Fatalf("seed %d: exit %d, want %d", seed, ex.ExitCode, wantCode)
		}
		if wantCode != 0 {
			continue
		}
		j, err := ParseAggJournal(ex.Journal)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := ReferenceAggregate(prev, batches...)
		if int(j.NewCount) != len(want) || j.NewRoot != prevRootOf(want) {
			t.Fatalf("seed %d: guest %d entries, reference %d (or roots differ)", seed, j.NewCount, len(want))
		}
		for i, d := range vmtree.LeafDigests(EntryWordsOf(want)) {
			if j.LeafDigests[i] != d {
				t.Fatalf("seed %d: leaf digest %d differs", seed, i)
			}
		}
		if j.PrevJournalHash != in.PrevJournalHash || j.PrevRoot != in.PrevRoot || j.Epoch != in.Epoch ||
			int(j.NumRouters) != len(in.Routers) || int(j.PrevCount) != len(prev) {
			t.Fatalf("seed %d: journal header %+v", seed, j)
		}
		for r, b := range in.Routers {
			if j.RouterIDs[r] != b.ID || j.Commitments[r] != b.Commitment {
				t.Fatalf("seed %d: router %d journaled wrong", seed, r)
			}
		}
	}
}
