package graph

import (
	"container/heap"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestRadixHeapBasicOrder(t *testing.T) {
	h := newRadixHeap()
	keys := []int64{5, 1, 9, 3, 3, 7}
	for i, k := range keys {
		h.push(k, VertexID(i))
	}
	sorted := append([]int64(nil), keys...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	for _, want := range sorted {
		got, _ := h.popMin()
		if got != want {
			t.Fatalf("popMin = %d, want %d", got, want)
		}
	}
	if h.len() != 0 {
		t.Fatalf("len = %d after draining", h.len())
	}
}

func TestRadixHeapMonotoneInterleaving(t *testing.T) {
	// Dijkstra-style usage: pushes interleave with pops, every pushed
	// key >= the last popped minimum.
	h := newRadixHeap()
	r := rand.New(rand.NewSource(7))
	h.push(0, 0)
	last := int64(0)
	var popped []int64
	for i := 0; i < 10000; i++ {
		if h.len() > 0 && (r.Intn(2) == 0 || i > 9000) {
			k, _ := h.popMin()
			if k < last {
				t.Fatalf("non-monotone pop: %d after %d", k, last)
			}
			last = k
			popped = append(popped, k)
		} else {
			h.push(last+int64(r.Intn(50)), VertexID(i))
		}
	}
	for i := 1; i < len(popped); i++ {
		if popped[i] < popped[i-1] {
			t.Fatalf("pop sequence not sorted at %d", i)
		}
	}
}

func TestRadixHeapLargeKeys(t *testing.T) {
	h := newRadixHeap()
	keys := []int64{1 << 40, 1, 1 << 62, 1 << 20, 0, 1<<62 + 1}
	for i, k := range keys {
		h.push(k, VertexID(i))
	}
	want := append([]int64(nil), keys...)
	sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
	for _, w := range want {
		g, _ := h.popMin()
		if g != w {
			t.Fatalf("got %d, want %d", g, w)
		}
	}
}

func TestRadixHeapReset(t *testing.T) {
	h := newRadixHeap()
	h.push(5, 0)
	h.push(9, 1)
	h.reset()
	if h.len() != 0 {
		t.Fatal("reset did not empty the heap")
	}
	// After reset the pivot is back at 0; small keys are legal again.
	h.push(1, 2)
	if k, v := h.popMin(); k != 1 || v != 2 {
		t.Fatalf("got (%d,%d), want (1,2)", k, v)
	}
}

// TestPropertyRadixHeapMatchesContainerHeap feeds identical monotone
// workloads to the radix heap and container/heap and compares the pop
// sequences.
func TestPropertyRadixHeapMatchesContainerHeap(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rh := newRadixHeap()
		var bh binHeap[int64]
		last := int64(0)
		rh.push(0, 0)
		heap.Push(&bh, heapItem[int64]{0, 0})
		for i := 0; i < 400; i++ {
			if rh.len() > 0 && r.Intn(2) == 0 {
				rk, _ := rh.popMin()
				bi := heap.Pop(&bh).(heapItem[int64])
				if rk != bi.d {
					t.Logf("seed %d: radix %d vs heap %d", seed, rk, bi.d)
					return false
				}
				last = rk
			} else {
				k := last + int64(r.Intn(1000))
				rh.push(k, VertexID(i))
				heap.Push(&bh, heapItem[int64]{k, VertexID(i)})
			}
		}
		for rh.len() > 0 {
			rk, _ := rh.popMin()
			bi := heap.Pop(&bh).(heapItem[int64])
			if rk != bi.d {
				return false
			}
		}
		return bh.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRadixHeapPanicsOnEmptyPop(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty popMin")
		}
	}()
	newRadixHeap().popMin()
}
