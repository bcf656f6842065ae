package zkvm

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refLiveImage is the map-backed canonical image: address-sorted
// nonzero words.
func refLiveImage(mem map[uint32]uint32) []imagePair {
	img := make([]imagePair, 0, len(mem))
	for a, v := range mem {
		if v != 0 {
			img = append(img, imagePair{Addr: a, Val: v})
		}
	}
	sort.Slice(img, func(i, j int) bool { return img[i].Addr < img[j].Addr })
	return img
}

// TestMemoryMatchesMap drives the paged memory and a plain map with
// the same random loads and stores — low guest memory, pages around
// the dense limit, sparse high words, 0xffffffff, zero stores — and
// requires identical reads and identical live images.
func TestMemoryMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	addr := func() uint32 {
		switch rng.Intn(6) {
		case 0:
			return uint32(rng.Intn(1 << 14)) // globals and the first bulk pages
		case 1:
			return uint32(rng.Intn(1 << 22)) // scattered over many pages
		case 2:
			return denseLimit - 1 - uint32(rng.Intn(3*pageWords)) // the last dense pages
		case 3:
			return denseLimit + uint32(rng.Intn(1<<10)) // just past the dense limit
		case 4:
			return 0xffffffff - uint32(rng.Intn(4))
		default:
			return rng.Uint32()
		}
	}
	var m memory
	ref := map[uint32]uint32{}
	var touched []uint32
	for i := 0; i < 20000; i++ {
		a := addr()
		if len(touched) > 0 && rng.Intn(3) == 0 {
			a = touched[rng.Intn(len(touched))] // revisit: overwrite or zero a live word
		}
		if rng.Intn(2) == 0 {
			if got, want := m.get(a), ref[a]; got != want {
				t.Fatalf("op %d: get(%#x) = %d, want %d", i, a, got, want)
			}
			continue
		}
		v := rng.Uint32()
		if rng.Intn(4) == 0 {
			v = 0
		}
		m.set(a, v)
		ref[a] = v
		touched = append(touched, a)
	}
	for _, a := range touched {
		if got, want := m.get(a), ref[a]; got != want {
			t.Fatalf("final get(%#x) = %d, want %d", a, got, want)
		}
	}
	if len(m.sparse) == 0 {
		t.Fatal("no word went to the sparse map")
	}
	if got, want := m.liveImage(), refLiveImage(ref); !slices.Equal(got, want) {
		t.Fatalf("live image has %d pairs, map reference %d (or order differs)", len(got), len(want))
	}
}

// TestMemoryZeroStoreAllocatesNothing pins the cheap cases: zero
// stores into untouched memory allocate no page and no map entry, and
// one high store costs one map entry, not a page table.
func TestMemoryZeroStoreAllocatesNothing(t *testing.T) {
	var m memory
	m.set(12345, 0)
	m.set(0xffffffff, 0)
	if len(m.pages) != 0 || len(m.sparse) != 0 {
		t.Fatalf("zero stores allocated %d page slots, %d map entries", len(m.pages), len(m.sparse))
	}
	m.set(0xffffffff, 7)
	if len(m.pages) != 0 || len(m.sparse) != 1 || m.get(0xffffffff) != 7 {
		t.Fatalf("high store: %d page slots, %d map entries", len(m.pages), len(m.sparse))
	}
	m.set(0xffffffff, 0)
	if len(m.sparse) != 0 || m.get(0xffffffff) != 0 {
		t.Fatal("zeroing a sparse word left a map entry")
	}
	if img := m.liveImage(); len(img) != 0 {
		t.Fatalf("empty memory has a %d-pair image", len(img))
	}
}
