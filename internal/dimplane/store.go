package dimplane

import (
	"cjoin/internal/bitvec"
	"cjoin/internal/dimht"
)

// Store is one dimension's shared Filter store: the hash table HD_j plus
// the complement bitmap b_Dj (bit i set iff active query i does not
// reference D_j), which doubles as the filtering vector for fact tuples
// whose dimension tuple is absent from the table and as the probe-skip
// mask (§3.2.2).
//
// It is a dimht copy-on-write open-addressing table. The write side
// (Admit*/Remove) belongs to the Plane and runs exactly once per logical
// query, building the next snapshot off to the side (writers serialize
// inside dimht.Table). The read side is probed concurrently by every
// pipeline attached to the plane: probers load an immutable Snapshot per
// batch and therefore take no lock.
type Store struct {
	t *dimht.Table
}

// NewStore returns an empty store for bit-vectors of the given word
// width over dimension rows of ncols columns.
func NewStore(words, ncols int) *Store {
	return &Store{t: dimht.New(words, ncols)}
}

// Snapshot pins the current immutable (table, b_Dj, refs) version — the
// Filter hot loop's one atomic load per batch.
func (st *Store) Snapshot() *dimht.Snapshot { return st.t.Load() }

// RefCount returns the number of active queries referencing the
// dimension.
func (st *Store) RefCount() int { return st.t.Load().Refs() }

// Len returns the number of stored dimension tuples.
func (st *Store) Len() int { return st.t.Load().Len() }

// MemBytes estimates the resident bytes of the store's current version
// (keys, bit-vectors, rows); shared by every prober, so it is reported
// once per plane, not once per pipeline.
func (st *Store) MemBytes() int64 { return st.t.Load().MemBytes() }

// AdmitNonRef marks query slot as active but non-referencing: set bit
// slot in b_Dj and in every stored entry (§3.2.1's implicit TRUE
// predicate).
func (st *Store) AdmitNonRef(slot int) {
	st.t.Update(func(b *dimht.Builder) {
		b.SetMaskBit(slot)
		b.SetBitAll(slot)
	})
}

// AdmitRef installs the rows selected by the query's dimension predicate
// and sets bit slot on each (Algorithm 1).
func (st *Store) AdmitRef(slot, keyCol int, rows [][]int64) {
	st.t.Update(func(b *dimht.Builder) {
		b.AddRef()
		for _, row := range rows {
			b.Upsert(row[keyCol], row).Set(slot)
		}
	})
}

// Install is one query's contribution to an AdmitBatch on one
// dimension: either a non-referencing tag (Ref false) or the rows its
// predicate selected (Ref true). Rows may be shared with the plane's
// predicate cache and with other slots in the batch; the store treats
// them as immutable.
type Install struct {
	Slot   int
	Ref    bool
	KeyCol int       // key column index; meaningful when Ref
	Rows   [][]int64 // selected rows; meaningful when Ref
}

// AdmitBatch installs K queries' tags in one version transition: a
// single snapshot publication for the whole batch where the per-query
// path pays K. Non-referencing installs are applied before referencing
// ones so entries upserted by the batch inherit every batchmate's
// non-ref bit via b_Dj, exactly as sequential admission would have left
// them.
func (st *Store) AdmitBatch(installs []Install) {
	st.t.Update(func(b *dimht.Builder) {
		// Phase 1: all non-referencing slots — K mask bits, then ONE
		// arena sweep ORs the whole batch's tags into existing entries.
		mask := make(bitvec.Vec, len(b.Mask()))
		for _, ins := range installs {
			if !ins.Ref {
				b.SetMaskBit(ins.Slot)
				mask.Set(ins.Slot)
			}
		}
		b.SetBitsAll(mask)
		// Phase 2: referencing slots. New entries copy b_Dj, which now
		// carries every batchmate's non-ref bit, so ordering within the
		// batch cannot be observed by probers.
		for _, ins := range installs {
			if !ins.Ref {
				continue
			}
			b.AddRef()
			for _, row := range ins.Rows {
				b.Upsert(row[ins.KeyCol], row).Set(ins.Slot)
			}
		}
	})
}

// Remove clears bit slot everywhere and garbage-collects entries
// selected by no remaining referencing query (Algorithm 2). It reports
// whether the table emptied.
func (st *Store) Remove(slot int, referenced bool) (emptied bool) {
	s := st.t.Update(func(b *dimht.Builder) {
		b.ClearMaskBit(slot)
		if referenced {
			b.DropRef()
		}
		b.ClearBitAll(slot)
		mask := b.Mask()
		b.Retain(func(bv bitvec.Vec) bool { return !bv.AndNotIsZero(mask) })
	})
	return s.Len() == 0 && s.Refs() == 0
}

// ForEach visits every stored entry; the bit-vector aliases internal
// storage and must not be modified or retained.
func (st *Store) ForEach(fn func(key int64, row []int64, bv bitvec.Vec) bool) {
	st.t.Load().ForEach(fn)
}
