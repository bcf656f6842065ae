// Package store is the embedded telemetry log store — the repository's
// substitute for the PostgreSQL backend in the paper's testbed (see
// DESIGN.md §1). Routers append raw NetFlow records per (epoch,
// router) segment concurrently; the aggregator later reads whole
// epochs. Segments beyond the retention window are evicted, modelling
// the paper's observation that raw logs are ephemeral — only the
// published hash commitments and the aggregate survive.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"zkflow/internal/atomicfile"
	"zkflow/internal/netflow"
)

// ErrEvicted reports a read of an epoch outside the retention window.
var ErrEvicted = errors.New("store: epoch evicted")

// segKey identifies one (epoch, router) segment.
type segKey struct {
	epoch  uint64
	router uint32
}

// Store is a concurrency-safe, epoch-segmented, append-only record
// store.
type Store struct {
	mu        sync.RWMutex
	segments  map[segKey][]netflow.Record
	retention int // epochs kept; 0 = unlimited
	maxEpoch  uint64
	haveEpoch bool
}

// Open creates an empty store retaining the given number of epochs
// (0 = unlimited).
func Open(retention int) *Store {
	return &Store{segments: make(map[segKey][]netflow.Record), retention: retention}
}

// Append adds records to the (epoch, router) segment and reports how
// many were refused. A write to an epoch already outside the retention
// window is refused whole — dropped is len(recs) and err wraps
// ErrEvicted — instead of being inserted and immediately evicted,
// which silently lost the records with no signal to the caller. The
// ingest path surfaces the dropped count through obs
// (ingest.records_dropped.evicted).
func (s *Store) Append(epoch uint64, router uint32, recs []netflow.Record) (dropped int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.evictedLocked(epoch) {
		return len(recs), fmt.Errorf("%w: append to epoch %d (retention %d, latest %d)",
			ErrEvicted, epoch, s.retention, s.maxEpoch)
	}
	k := segKey{epoch, router}
	s.segments[k] = append(s.segments[k], recs...)
	if !s.haveEpoch || epoch > s.maxEpoch {
		s.maxEpoch = epoch
		s.haveEpoch = true
	}
	s.evictLocked()
	return 0, nil
}

func (s *Store) evictLocked() {
	if s.retention <= 0 || !s.haveEpoch {
		return
	}
	min := int64(s.maxEpoch) - int64(s.retention) + 1
	if min <= 0 {
		return
	}
	for k := range s.segments {
		if int64(k.epoch) < min {
			delete(s.segments, k)
		}
	}
}

// evictedLocked reports whether an epoch is outside the retention
// window.
func (s *Store) evictedLocked(epoch uint64) bool {
	return s.retention > 0 && s.haveEpoch && int64(epoch) < int64(s.maxEpoch)-int64(s.retention)+1
}

// Epoch returns a copy of the records one router logged in an epoch.
// Reading an evicted epoch returns ErrEvicted; an epoch the router
// never wrote returns an empty slice.
func (s *Store) Epoch(epoch uint64, router uint32) ([]netflow.Record, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.evictedLocked(epoch) {
		return nil, fmt.Errorf("%w: epoch %d (retention %d, latest %d)", ErrEvicted, epoch, s.retention, s.maxEpoch)
	}
	recs := s.segments[segKey{epoch, router}]
	out := make([]netflow.Record, len(recs))
	copy(out, recs)
	return out, nil
}

// Routers lists the routers that wrote during an epoch, sorted.
// An evicted epoch returns ErrEvicted so callers can distinguish
// "expired" from "never collected".
func (s *Store) Routers(epoch uint64) ([]uint32, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.evictedLocked(epoch) {
		return nil, fmt.Errorf("%w: epoch %d", ErrEvicted, epoch)
	}
	var out []uint32
	for k := range s.segments {
		if k.epoch == epoch {
			out = append(out, k.router)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Epochs lists the retained epochs, sorted.
func (s *Store) Epochs() []uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	seen := make(map[uint64]bool)
	for k := range s.segments {
		seen[k.epoch] = true
	}
	out := make([]uint64, 0, len(seen))
	for e := range seen {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the total retained record count.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, recs := range s.segments {
		n += len(recs)
	}
	return n
}

// storeMagic versions the persistence encoding.
const storeMagic = 0x7a6b7374 // "zkst"

// Save serialises the store (for prover restarts between rounds).
func (s *Store) Save(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], storeMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(s.retention))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(s.segments)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	// Deterministic segment order.
	keys := make([]segKey, 0, len(s.segments))
	for k := range s.segments {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].epoch != keys[j].epoch {
			return keys[i].epoch < keys[j].epoch
		}
		return keys[i].router < keys[j].router
	})
	for _, k := range keys {
		recs := s.segments[k]
		var seg [20]byte
		binary.LittleEndian.PutUint64(seg[0:], k.epoch)
		binary.LittleEndian.PutUint32(seg[8:], k.router)
		binary.LittleEndian.PutUint64(seg[12:], uint64(len(recs)))
		if _, err := w.Write(seg[:]); err != nil {
			return err
		}
		if _, err := w.Write(netflow.EncodeBatch(recs)); err != nil {
			return err
		}
	}
	return nil
}

// Load reads a store serialised by Save.
func Load(r io.Reader) (*Store, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != storeMagic {
		return nil, errors.New("store: bad magic")
	}
	s := Open(int(binary.LittleEndian.Uint32(hdr[4:])))
	nSegs := binary.LittleEndian.Uint64(hdr[8:])
	for i := uint64(0); i < nSegs; i++ {
		var seg [20]byte
		if _, err := io.ReadFull(r, seg[:]); err != nil {
			return nil, err
		}
		epoch := binary.LittleEndian.Uint64(seg[0:])
		router := binary.LittleEndian.Uint32(seg[8:])
		n := binary.LittleEndian.Uint64(seg[12:])
		if n > 1<<32 {
			return nil, fmt.Errorf("store: segment of %d records implausible", n)
		}
		buf := make([]byte, int(n)*netflow.WireBytes)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		recs, err := netflow.DecodeBatch(buf)
		if err != nil {
			return nil, err
		}
		// Save emits segments in ascending epoch order and only retained
		// ones, so a well-formed file never trips the eviction refusal;
		// a crafted or corrupted file can.
		if _, err := s.Append(epoch, router, recs); err != nil {
			return nil, fmt.Errorf("store: load segment %d/%d: %w", epoch, router, err)
		}
	}
	return s, nil
}

// SaveFile writes the store to a file, replacing any previous one
// crash-safely (see atomicfile.Write).
func (s *Store) SaveFile(path string) error {
	return atomicfile.Write(path, s.Save)
}

// LoadFile reads a store from a file.
func LoadFile(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
