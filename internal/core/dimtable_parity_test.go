package core

import (
	"math/rand"
	"sort"
	"testing"

	"cjoin/internal/bitvec"
)

// specQuery is one active query slot of the Filter spec model.
type specQuery struct {
	referenced bool
	lt         int64 // a referencing query selects the rows with v < lt
}

// specFilter is a reference model of one dimension's Filter over
// miniStar's rows (k, k%5), written straight from the §3.2.1 and §3.2.2
// definitions. It keeps only the active slots and recomputes every
// observable from them, so it shares no incremental algorithm with the
// store.
type specFilter struct {
	maxConc int
	dimRows int64
	active  map[int]specQuery

	tuplesIn, probes, drops int64
}

// slots returns the active slots in increasing order.
func (m *specFilter) slots() []int {
	s := make([]int, 0, len(m.active))
	for slot := range m.active {
		s = append(s, slot)
	}
	sort.Ints(s)
	return s
}

// selects reports whether query q selects dimension tuple δ = key.
func (m *specFilter) selects(q specQuery, key int64) bool {
	return q.referenced && key >= 0 && key < m.dimRows && key%5 < q.lt
}

// refs is the number of active queries that reference the dimension.
func (m *specFilter) refs() int {
	n := 0
	for _, q := range m.active {
		if q.referenced {
			n++
		}
	}
	return n
}

// mask is b_Dj: bit i is set iff query i is active and does not
// reference the dimension.
func (m *specFilter) mask() bitvec.Vec {
	v := bitvec.New(m.maxConc)
	for slot, q := range m.active {
		if !q.referenced {
			v.Set(slot)
		}
	}
	return v
}

// stored reports whether δ = key is in HD_j: some active query selects
// it.
func (m *specFilter) stored(key int64) bool {
	for _, q := range m.active {
		if m.selects(q, key) {
			return true
		}
	}
	return false
}

// bits is b_δ: bit i is set iff query i selects δ, or query i is active
// and does not reference the dimension.
func (m *specFilter) bits(key int64) bitvec.Vec {
	v := bitvec.New(m.maxConc)
	for slot, q := range m.active {
		if !q.referenced || m.selects(q, key) {
			v.Set(slot)
		}
	}
	return v
}

// size is the number of stored dimension tuples.
func (m *specFilter) size() int {
	n := 0
	for k := int64(0); k < m.dimRows; k++ {
		if m.stored(k) {
			n++
		}
	}
	return n
}

// specOut is one tuple the Filter is expected to forward.
type specOut struct {
	key      int64
	bv       bitvec.Vec
	attached bool // the dimension row (key, key%5) is attached
}

// filter returns the tuples the Filter must forward for the input
// (keys[i], bvs[i]), in input order, and advances the expected counters.
// With no referencing query the Filter passes the batch through
// untouched. Otherwise a tuple relevant only to non-referencing queries
// (bτ AND NOT b_Dj = 0) skips the probe; every other tuple is probed:
// bτ AND b_δ with δ attached if δ is stored, else bτ AND b_Dj, and it
// is dropped if no bit survives.
func (m *specFilter) filter(keys []int64, bvs []bitvec.Vec) []specOut {
	out := make([]specOut, 0, len(keys))
	if m.refs() == 0 {
		for i := range keys {
			out = append(out, specOut{key: keys[i], bv: bvs[i]})
		}
		return out
	}
	m.tuplesIn += int64(len(keys))
	mask := m.mask()
	for i, key := range keys {
		bv := bvs[i].Clone()
		if bv.AndNotIsZero(mask) {
			out = append(out, specOut{key: key, bv: bv})
			continue
		}
		m.probes++
		o := specOut{key: key, bv: bv}
		if m.stored(key) {
			bv.And(m.bits(key))
			o.attached = true
		} else {
			bv.And(mask)
		}
		if bv.IsZero() {
			m.drops++
			continue
		}
		out = append(out, o)
	}
	return out
}

// TestDimTableParity is the property test for the dimht Filter store: a
// random interleaving of admissions, removals, and batch filters is
// applied to a dimState and to the specFilter model, and every
// observable — table size, reference count, b_Dj, every stored entry's
// row and b_δ, surviving tuples, their bit-vectors, attached dimension
// rows, the emptied report of each removal, and probe/drop statistics —
// must match the model.
func TestDimTableParity(t *testing.T) {
	const (
		maxConc = 96 // multi-word vectors: covers the general path
		dimRows = 60
		rounds  = 400
	)
	star := miniStar(t, dimRows)
	ds := newTestDimState(star, 0, maxConc)
	model := &specFilter{maxConc: maxConc, dimRows: dimRows, active: map[int]specQuery{}}

	rng := rand.New(rand.NewSource(20090824))

	filter := func() {
		b := newBatch(32, 2, bitvec.Words(maxConc), 1)
		rng2 := rand.New(rand.NewSource(int64(len(model.active))*1000 + rng.Int63n(1000)))
		slots := model.slots()
		for i := 0; i < 32; i++ {
			tp := b.alloc()
			tp.row[0] = rng2.Int63n(dimRows + 20) // some keys miss the table
			for _, slot := range slots {
				if rng2.Intn(2) == 0 {
					tp.bv.Set(slot)
				}
			}
			if tp.bv.IsZero() {
				b.unalloc()
			}
		}
		keys := make([]int64, len(b.rows))
		bvs := make([]bitvec.Vec, len(b.rows))
		for i := range b.rows {
			keys[i] = b.rows[i].row[0]
			bvs[i] = b.rows[i].bv.Clone()
		}
		want := model.filter(keys, bvs)

		ds.filterBatch(b)

		if len(b.rows) != len(want) {
			t.Fatalf("survivor count %d, model %d", len(b.rows), len(want))
		}
		for i, w := range want {
			got := &b.rows[i]
			if got.row[0] != w.key {
				t.Fatalf("row order diverged at %d: key %d, model %d", i, got.row[0], w.key)
			}
			if !got.bv.Equal(w.bv) {
				t.Fatalf("bits for key %d: %v, model %v", w.key, got.bv, w.bv)
			}
			d := got.dims[0]
			if (d != nil) != w.attached {
				t.Fatalf("attachment for key %d: %v, model attached=%v", w.key, d, w.attached)
			}
			if d != nil && (d[0] != w.key || d[1] != w.key%5) {
				t.Fatalf("attached row for key %d: %v", w.key, d)
			}
		}
	}

	check := func() {
		if got, want := ds.size(), model.size(); got != want {
			t.Fatalf("size %d, model %d", got, want)
		}
		if got, want := ds.refCount(), model.refs(); got != want {
			t.Fatalf("refs %d, model %d", got, want)
		}
		if got, want := ds.store.Snapshot().Mask(), model.mask(); !got.Equal(want) {
			t.Fatalf("b_Dj %v, model %v", got, want)
		}
		ds.store.ForEach(func(key int64, row []int64, bv bitvec.Vec) bool {
			if !model.stored(key) {
				t.Fatalf("entry %d stored, model has no active query selecting it", key)
			}
			if row[0] != key || row[1] != key%5 {
				t.Fatalf("entry %d row %v", key, row)
			}
			if want := model.bits(key); !bv.Equal(want) {
				t.Fatalf("entry %d bits %v, model %v", key, bv, want)
			}
			return true
		})
		st := ds.stats()
		if st.TuplesIn != model.tuplesIn || st.Probes != model.probes || st.Drops != model.drops {
			t.Fatalf("stats %+v, model in=%d probes=%d drops=%d",
				st, model.tuplesIn, model.probes, model.drops)
		}
	}

	for round := 0; round < rounds; round++ {
		switch op := rng.Intn(3); {
		case op == 0 && len(model.active) < maxConc/2:
			// Admit a fresh slot: referencing with random selectivity, or
			// non-referencing.
			slot := rng.Intn(maxConc)
			if _, used := model.active[slot]; used {
				continue
			}
			if rng.Intn(3) == 0 {
				if err := ds.admit(slot, nil); err != nil {
					t.Fatal(err)
				}
				model.active[slot] = specQuery{}
			} else {
				lt := rng.Int63n(6)
				if err := ds.admit(slot, predLt(lt)); err != nil {
					t.Fatal(err)
				}
				model.active[slot] = specQuery{referenced: true, lt: lt}
			}
		case op == 1 && len(model.active) > 0:
			// Remove a random active slot.
			slots := model.slots()
			slot := slots[rng.Intn(len(slots))]
			emptied := ds.remove(slot, model.active[slot].referenced)
			delete(model.active, slot)
			if want := model.size() == 0 && model.refs() == 0; emptied != want {
				t.Fatalf("remove slot %d: emptied=%v, model %v", slot, emptied, want)
			}
		default:
			filter()
		}
		check()
	}
}
