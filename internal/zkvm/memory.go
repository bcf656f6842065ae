package zkvm

import (
	"cmp"
	"slices"
)

// Guest memory layout. Every guest keeps its globals in low memory and
// lays its bulk regions out contiguously above them, so the emulator
// serves words below denseLimit from 4096-word pages reached through a
// page table: a load or store there is two indexed loads, with no
// hashing. The table grows only as far as the highest page written,
// and a page is allocated on the first nonzero store into it, so loads
// and zero stores to untouched memory allocate nothing. Words at or
// above denseLimit live in a sparse map instead, so a high store costs
// one map entry, not a page table spanning the address space.
const (
	pageBits  = 12
	pageWords = 1 << pageBits
	pageMask  = pageWords - 1

	// denseLimit bounds the paged address range (in words); a fully
	// grown page table is denseLimit>>pageBits pointers (512 KiB).
	denseLimit = 1 << 28
)

type page [pageWords]uint32

// memory is the emulator's word-addressed, zero-initialised guest
// memory. A word below denseLimit is held in its page if that page is
// allocated and is zero otherwise; a word at or above it is held in
// the sparse map (nonzero values only). The zero value is empty
// memory.
type memory struct {
	pages  []*page
	sparse map[uint32]uint32
}

func (m *memory) get(addr uint32) uint32 {
	if i := addr >> pageBits; i < uint32(len(m.pages)) {
		if p := m.pages[i]; p != nil {
			return p[addr&pageMask]
		}
	}
	return m.sparse[addr]
}

func (m *memory) set(addr, val uint32) {
	if i := addr >> pageBits; i < uint32(len(m.pages)) {
		if p := m.pages[i]; p != nil {
			p[addr&pageMask] = val
			return
		}
	}
	m.setSlow(addr, val)
}

// setSlow stores into an unallocated page, allocating it, or into the
// sparse map above denseLimit.
func (m *memory) setSlow(addr, val uint32) {
	if addr < denseLimit {
		if val == 0 {
			return // an unallocated page already reads zero
		}
		i := int(addr >> pageBits)
		if i >= len(m.pages) {
			n := min(max(i+1, 2*len(m.pages)), denseLimit>>pageBits)
			m.pages = append(m.pages, make([]*page, n-len(m.pages))...)
		}
		p := new(page)
		p[addr&pageMask] = val
		m.pages[i] = p
		return
	}
	if val == 0 {
		delete(m.sparse, addr)
		return
	}
	if m.sparse == nil {
		m.sparse = make(map[uint32]uint32)
	}
	m.sparse[addr] = val
}

// liveImage canonicalises the memory: address-sorted (addr, val) pairs
// with val != 0.
func (m *memory) liveImage() []imagePair {
	var img []imagePair
	for i, p := range m.pages {
		if p == nil {
			continue
		}
		base := uint32(i) << pageBits
		for j, v := range p {
			if v != 0 {
				img = append(img, imagePair{Addr: base | uint32(j), Val: v})
			}
		}
	}
	if len(m.sparse) == 0 {
		return img
	}
	for a, v := range m.sparse {
		img = append(img, imagePair{Addr: a, Val: v})
	}
	slices.SortFunc(img, func(x, y imagePair) int { return cmp.Compare(x.Addr, y.Addr) })
	return img
}
