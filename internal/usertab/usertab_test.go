package usertab

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/hashing"
)

// TestTableMatchesMapReference drives a table and a Go map through the same
// random operation sequence (accumulates, overwrites, lookups, including the
// sentinel-colliding key 0) and requires identical contents throughout —
// the table's contract is exactly a map's, minus deletion.
func TestTableMatchesMapReference(t *testing.T) {
	rng := hashing.NewRNG(1)
	tab := New()
	ref := make(map[uint64]float64)
	const keySpace = 5000
	for op := 0; op < 200000; op++ {
		key := uint64(rng.Intn(keySpace)) // includes 0
		switch rng.Intn(4) {
		case 0, 1:
			d := rng.Float64() * 10
			tab.Add(key, d)
			ref[key] += d
		case 2:
			v := rng.Float64() * 100
			tab.Set(key, v)
			ref[key] = v
		case 3:
			want := ref[key]
			if got := tab.Get(key); got != want {
				t.Fatalf("op %d: Get(%d) = %v, want %v", op, key, got, want)
			}
		}
	}
	if tab.Len() != len(ref) {
		t.Fatalf("Len %d, map has %d", tab.Len(), len(ref))
	}
	seen := 0
	tab.Range(func(k uint64, v float64) {
		seen++
		if want, ok := ref[k]; !ok || want != v {
			t.Fatalf("Range reported %d=%v, map has %v (present %v)", k, v, ref[k], ok)
		}
	})
	if seen != len(ref) {
		t.Fatalf("Range visited %d entries, want %d", seen, len(ref))
	}
	for k, v := range ref {
		if got := tab.Get(k); got != v {
			t.Fatalf("final Get(%d) = %v, want %v", k, got, v)
		}
	}
	// Absent keys, including ones beyond the key space.
	for i := 0; i < 1000; i++ {
		k := uint64(keySpace) + uint64(rng.Intn(1<<20))
		if tab.Get(k) != 0 || tab.Ref(k) != nil {
			t.Fatalf("phantom entry for %d", k)
		}
	}
}

func TestTableZeroKeySidecar(t *testing.T) {
	tab := New()
	if tab.Get(0) != 0 || tab.Ref(0) != nil || tab.Len() != 0 {
		t.Fatal("empty table reports user 0")
	}
	tab.Add(0, 2.5)
	if tab.Get(0) != 2.5 || tab.Len() != 1 {
		t.Fatalf("user 0: got %v, len %d", tab.Get(0), tab.Len())
	}
	*tab.Ref(0) += 1.5
	if tab.Get(0) != 4 {
		t.Fatalf("Ref(0) write lost: %v", tab.Get(0))
	}
	// Both iteration orders report user 0 first.
	tab.Add(7, 1)
	var order []uint64
	tab.Range(func(k uint64, _ float64) { order = append(order, k) })
	if order[0] != 0 {
		t.Fatalf("Range order %v, want user 0 first", order)
	}
	order = order[:0]
	tab.SortedRange(func(k uint64, _ float64) { order = append(order, k) })
	if !slices.Equal(order, []uint64{0, 7}) {
		t.Fatalf("SortedRange order %v", order)
	}
	tab.Set(0, -1)
	if tab.Get(0) != -1 {
		t.Fatal("Set(0) did not overwrite")
	}
}

// TestTableSortedRange: ascending key order, every entry exactly once,
// regardless of how the layout was built.
func TestTableSortedRange(t *testing.T) {
	rng := hashing.NewRNG(3)
	tab := New()
	want := make([]uint64, 0, 3000)
	for i := 0; i < 3000; i++ {
		k := rng.Uint64()
		if tab.Ref(k) == nil {
			want = append(want, k)
		}
		tab.Add(k, float64(i))
	}
	slices.Sort(want)
	got := make([]uint64, 0, len(want))
	tab.SortedRange(func(k uint64, _ float64) { got = append(got, k) })
	if !slices.Equal(got, want) {
		t.Fatalf("SortedRange keys differ: %d vs %d entries", len(got), len(want))
	}
}

// TestTableDeterministicLayout: two tables fed the same operations are
// cell-for-cell identical, so Range visits entries in the same order.
func TestTableDeterministicLayout(t *testing.T) {
	build := func() *Table {
		rng := hashing.NewRNG(9)
		tab := New()
		for i := 0; i < 50000; i++ {
			tab.Add(uint64(rng.Intn(4000)+1), 1)
		}
		return tab
	}
	a, b := build(), build()
	var orderA, orderB []uint64
	a.Range(func(k uint64, _ float64) { orderA = append(orderA, k) })
	b.Range(func(k uint64, _ float64) { orderB = append(orderB, k) })
	if !slices.Equal(orderA, orderB) {
		t.Fatal("identical histories produced different layouts")
	}
}

func TestTableCloneIsDeep(t *testing.T) {
	tab := New()
	for i := uint64(0); i < 100; i++ {
		tab.Add(i, float64(i))
	}
	c := tab.Clone()
	if c.Len() != tab.Len() {
		t.Fatalf("clone Len %d, want %d", c.Len(), tab.Len())
	}
	// Clones preserve layout: Range orders agree at clone time.
	var orderA, orderB []uint64
	tab.Range(func(k uint64, _ float64) { orderA = append(orderA, k) })
	c.Range(func(k uint64, _ float64) { orderB = append(orderB, k) })
	if !slices.Equal(orderA, orderB) {
		t.Fatal("clone changed layout")
	}
	c.Add(999, 1)
	c.Add(5, 1)
	if tab.Get(999) != 0 || tab.Get(5) != 5 {
		t.Fatal("clone shares state with original")
	}
}

func TestTableReset(t *testing.T) {
	tab := New()
	for i := uint64(0); i < 10000; i++ {
		tab.Add(i, 1)
	}
	grown := tab.MemoryBytes()
	tab.Reset()
	if tab.Len() != 0 || tab.Get(0) != 0 || tab.Get(42) != 0 {
		t.Fatal("Reset left entries behind")
	}
	if tab.MemoryBytes() >= grown {
		t.Fatal("Reset did not release the backing arrays")
	}
	tab.Add(1, 2)
	if tab.Get(1) != 2 || tab.Len() != 1 {
		t.Fatal("table unusable after Reset")
	}
}

// TestTableHighLoadFactor pins the memory contract this package exists for:
// the table refuses to double before 31/32 occupancy, so a pre-sized table
// holds its advertised entry count in exactly capacity*16 bytes.
func TestTableHighLoadFactor(t *testing.T) {
	const n = 100000
	tab := NewWithCapacity(n)
	cap0 := tab.Cap()
	rng := hashing.NewRNG(5)
	for i := 0; i < n; i++ {
		tab.Add(rng.Uint64()|1, 1) // nonzero keys; dups just accumulate
	}
	if tab.Cap() != cap0 {
		t.Fatalf("pre-sized table grew: %d -> %d", cap0, tab.Cap())
	}
	// Organic growth stays within one doubling of the load-factor floor.
	org := New()
	for i := 0; i < n; i++ {
		org.Add(uint64(i)+1, 1)
	}
	maxSlots := 1
	for maxSlots-grow32nd(maxSlots) < n {
		maxSlots <<= 1
	}
	if org.Cap() > maxSlots {
		t.Fatalf("organic table at %d slots for %d entries (max %d)", org.Cap(), n, maxSlots)
	}
	if got := org.MemoryBytes(); got != int64(org.Cap())*16 {
		t.Fatalf("MemoryBytes %d, want %d", got, int64(org.Cap())*16)
	}

	// The memory bound. Grown organically, a table never spends more than
	// 2·16·32/31 bytes per entry (just past a doubling at 31/32 load) once
	// it holds at least minCapacity entries, and at 126,000 entries it fits
	// in 131,072 slots at no more than 17 bytes per entry. The heap check
	// measures what the table really holds live, so a per-slot array that
	// MemoryBytes does not count still shows.
	const (
		fitEntries       = 126_000
		fitSlots         = 131_072
		maxFitBytes      = 17.0
		maxBytesPerEntry = 2 * 16 * 32 / 31.0
	)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	grown := New()
	for i := 1; i <= fitEntries; i++ {
		grown.Add(uint64(i), 1)
		if i < minCapacity {
			continue
		}
		if per := float64(grown.MemoryBytes()) / float64(i); per > maxBytesPerEntry {
			t.Fatalf("%d entries in %d slots: %.2f B/entry > %.2f", i, grown.Cap(), per, maxBytesPerEntry)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := float64(int64(after.HeapAlloc) - int64(before.HeapAlloc))
	runtime.KeepAlive(grown)
	if grown.Cap() != fitSlots {
		t.Fatalf("%d entries in %d slots, want %d", fitEntries, grown.Cap(), fitSlots)
	}
	for _, b := range []struct {
		name  string
		bytes float64
	}{{"MemoryBytes", float64(grown.MemoryBytes())}, {"live heap", live}} {
		if per := b.bytes / fitEntries; per > maxFitBytes {
			t.Fatalf("%d entries: %s %.0f B = %.2f B/entry > %.0f", fitEntries, b.name, b.bytes, per, maxFitBytes)
		}
	}
	t.Logf("%d entries in %d slots: %.2f B/entry by MemoryBytes, %.2f live",
		fitEntries, grown.Cap(), float64(grown.MemoryBytes())/fitEntries, live/fitEntries)
}

// TestTableSpecialValues: NaN, ±Inf, and zero values are stored verbatim —
// hostile checkpoint payloads may carry them, and the decoder must round
// them through the table unchanged.
func TestTableSpecialValues(t *testing.T) {
	tab := New()
	tab.Set(1, math.NaN())
	tab.Set(2, math.Inf(1))
	tab.Set(3, 0)
	if !math.IsNaN(tab.Get(1)) || !math.IsInf(tab.Get(2), 1) {
		t.Fatal("special values mangled")
	}
	if tab.Ref(3) == nil || tab.Len() != 3 {
		t.Fatal("zero-valued entry dropped")
	}
}

func BenchmarkTableAdd(b *testing.B) {
	rng := hashing.NewRNG(1)
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = rng.Uint64() | 1
	}
	b.ReportAllocs()
	tab := New()
	for i := 0; i < b.N; i++ {
		tab.Add(keys[i&(1<<16-1)], 1.5)
	}
}

func BenchmarkTableGetHit(b *testing.B) {
	rng := hashing.NewRNG(1)
	keys := make([]uint64, 1<<16)
	tab := New()
	for i := range keys {
		keys[i] = rng.Uint64() | 1
		tab.Add(keys[i], 1.5)
	}
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += tab.Get(keys[i&(1<<16-1)])
	}
	_ = sink
}
