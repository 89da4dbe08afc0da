package core

import (
	"testing"

	"cjoin/internal/catalog"
	"cjoin/internal/disk"
	"cjoin/internal/storage"
)

func partStar(t *testing.T, rowsPerPart []int64) *catalog.Star {
	t.Helper()
	dev := disk.NewMem()
	fact := catalog.NewTable(dev, "f", 0, []catalog.Column{{Name: "pk"}, {Name: "v"}})
	dim := catalog.NewTable(dev, "d", 0, []catalog.Column{{Name: "k"}})
	dim.Heap.Append([]int64{1})
	star, err := catalog.NewStar(fact, []*catalog.Table{dim}, []int{0}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	var parts []catalog.FactPartition
	next := int64(0)
	for pi, n := range rowsPerPart {
		h := storage.CreateHeap(dev, 2)
		for i := int64(0); i < n; i++ {
			h.Append([]int64{int64(pi), next})
			next++
		}
		parts = append(parts, catalog.FactPartition{Heap: h, MinKey: int64(pi), MaxKey: int64(pi)})
	}
	if err := star.SetPartitions(0, parts); err != nil {
		t.Fatal(err)
	}
	return star
}

func TestFactScanCyclesOverPartitions(t *testing.T) {
	star := partStar(t, []int64{700, 300, 500}) // 511 rows/page → 2+1+1 pages
	s := newFactScan(star, nil, nil, nil)
	// Two full cycles are consumed: the wrap flag arrives with the first
	// page of the next cycle.
	total := int64(2 * 1500)
	var seen int64
	var prev int64 = -1
	wraps := 0
	for wraps < 2 {
		vals, n, pos, _, _, wrapped, err := s.nextPage(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if wrapped {
			wraps++
			if wraps == 2 {
				break
			}
			prev = -1
		}
		_ = pos
		for i := 0; i < n; i++ {
			v := vals[i*2+1]
			if v != prev+1 {
				t.Fatalf("row order broken: %d after %d", v, prev)
			}
			prev = v
			seen++
		}
	}
	if seen != total {
		t.Fatalf("saw %d rows over two full cycles, want %d", seen, total)
	}
}

func TestFactScanSkipsPartitions(t *testing.T) {
	star := partStar(t, []int64{400, 400, 400})
	s := newFactScan(star, nil, nil, nil)
	skipMiddle := func(p int) bool { return p == 1 }
	seenParts := map[int]bool{}
	for i := 0; i < 10; i++ {
		vals, n, _, part, _, _, err := s.nextPage(skipMiddle, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatal("scan starved")
		}
		seenParts[part] = true
		if vals[0] == 1 {
			t.Fatal("row from skipped partition delivered")
		}
	}
	if seenParts[1] || !seenParts[0] || !seenParts[2] {
		t.Fatalf("partitions visited: %v", seenParts)
	}
}

func TestFactScanAllSkipped(t *testing.T) {
	star := partStar(t, []int64{100})
	s := newFactScan(star, nil, nil, nil)
	_, n, _, _, _, _, err := s.nextPage(func(int) bool { return true }, nil)
	if err != nil || n != 0 {
		t.Fatalf("fully skipped scan must return n=0: n=%d err=%v", n, err)
	}
}

func TestFactScanPositionsStable(t *testing.T) {
	star := partStar(t, []int64{700, 300})
	s := newFactScan(star, nil, nil, nil)
	var firstCycle, secondCycle []int64
	for {
		_, _, pos, _, _, wrapped, err := s.nextPage(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if wrapped {
			// The wrap flag arrives with cycle 2's first page.
			secondCycle = append(secondCycle, pos)
			break
		}
		firstCycle = append(firstCycle, pos)
	}
	for len(secondCycle) < len(firstCycle) {
		_, _, pos, _, _, _, err := s.nextPage(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		secondCycle = append(secondCycle, pos)
	}
	// §3.3.3: "the continuous scan returns fact tuples in the same order
	// once resumed".
	for i := range firstCycle {
		if secondCycle[i] != firstCycle[i] {
			t.Fatalf("cycle 2 position %d = %d, want %d", i, secondCycle[i], firstCycle[i])
		}
	}
}

func TestOptimizerOrdersBySelectivity(t *testing.T) {
	dev := disk.NewMem()
	fact := catalog.NewTable(dev, "f", 0, []catalog.Column{{Name: "a"}, {Name: "b"}, {Name: "m"}})
	d1 := catalog.NewTable(dev, "d1", 0, []catalog.Column{{Name: "k"}})
	d2 := catalog.NewTable(dev, "d2", 0, []catalog.Column{{Name: "k"}})
	d1.Heap.Append([]int64{1})
	d2.Heap.Append([]int64{1})
	star, err := catalog.NewStar(fact, []*catalog.Table{d1, d2}, []int{0, 1}, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(star, Config{MaxConcurrent: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Fake measured drop rates: d2 drops more. ReorderFilters reads only
	// the counters, not the stores.
	order := []int{0, 1}
	p.filterOrder.Store(&order)
	p.dimStates[0].tuplesIn.Store(1000)
	p.dimStates[0].drops.Store(100)
	p.dimStates[1].tuplesIn.Store(1000)
	p.dimStates[1].drops.Store(900)

	p.ReorderFilters()
	got := *p.filterOrder.Load()
	if len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Fatalf("order after reorder: %v (want [1 0])", got)
	}
	// Counters must have decayed.
	if p.dimStates[1].drops.Load() != 450 {
		t.Fatalf("decay missing: %d", p.dimStates[1].drops.Load())
	}
}

func TestTuplePoolBackpressure(t *testing.T) {
	p := newTuplePool(2, 4, 2, 1, 1)
	stop := make(chan struct{})
	b1 := p.get(stop)
	b2 := p.get(stop)
	if b1 == nil || b2 == nil {
		t.Fatal("pool must supply its capacity")
	}
	// Third get must block until a put; verify via the stop path.
	done := make(chan *batch, 1)
	go func() { done <- p.get(stop) }()
	select {
	case <-done:
		t.Fatal("get must block when the pool is exhausted")
	default:
	}
	p.put(b1)
	if b := <-done; b == nil {
		t.Fatal("blocked get must obtain the released batch")
	}
	// Stop path unblocks with nil.
	go func() { done <- p.get(stop) }()
	close(stop)
	if b := <-done; b != nil {
		t.Fatal("get must return nil on stop")
	}
	// Control batches are never pooled.
	p.put(ctrlBatch(0, ctrlStart, nil, nil))
	if p.capSlots() != 2 {
		t.Fatalf("cap %d", p.capSlots())
	}
}

func TestBatchAllocUnalloc(t *testing.T) {
	b := newBatch(3, 2, 1, 2)
	x := b.alloc()
	x.row[0] = 7
	x.bv.Set(0)
	y := b.alloc()
	y.bv.Set(1)
	b.unalloc()
	if len(b.rows) != 1 || b.rows[0].row[0] != 7 {
		t.Fatalf("unalloc broke batch: %v", b.rows)
	}
	if b.full() {
		t.Fatal("batch with 1/3 rows is not full")
	}
	b.alloc()
	b.alloc()
	if !b.full() {
		t.Fatal("batch must be full at capacity")
	}
	b.reset()
	if len(b.rows) != 0 {
		t.Fatal("reset must clear rows")
	}
	// A reused arena slot must come back zeroed.
	z := b.alloc()
	if !z.bv.IsZero() || z.dims[0] != nil || z.dims[1] != nil {
		t.Fatal("reused tuple not cleaned")
	}
}
