package core

import (
	"fmt"
	"testing"

	"repro/internal/hashing"
	"repro/internal/usertab"
)

// burstEdges generates n edges in user bursts (runs of 1..maxRun edges per
// user, duplicates included), the traffic shape the batch fast path hoists
// over. Deterministic in seed.
func burstEdges(n, users, maxRun int, seed uint64) []Edge {
	rng := hashing.NewRNG(seed)
	edges := make([]Edge, 0, n)
	for len(edges) < n {
		u := uint64(rng.Intn(users) + 1)
		run := rng.Intn(maxRun) + 1
		for r := 0; r < run && len(edges) < n; r++ {
			item := rng.Uint64()
			if rng.Float64() < 0.2 { // duplicates exercise the no-flip path
				item = uint64(rng.Intn(50))
			}
			edges = append(edges, Edge{User: u, Item: item})
		}
	}
	return edges
}

// feedChunks feeds edges through ObserveBatch in uneven chunks so run
// boundaries fall on chunk boundaries too.
func feedChunks(observeBatch func([]Edge), edges []Edge) {
	sizes := []int{1, 37, 5, 256, 3}
	for i, k := 0, 0; i < len(edges); k++ {
		c := sizes[k%len(sizes)]
		if i+c > len(edges) {
			c = len(edges) - i
		}
		observeBatch(edges[i : i+c])
		i += c
	}
}

// TestFreeBSObserveBatchBitIdentical: batched ingestion must leave FreeBS in
// exactly the state per-edge ingestion produces — same bits, same zero count,
// same per-user floats, same totals — for both update-order variants.
func TestFreeBSObserveBatchBitIdentical(t *testing.T) {
	for _, postQ := range []bool{false, true} {
		var opts []FreeBSOption
		if postQ {
			opts = append(opts, WithPostUpdateQ())
		}
		seq := NewFreeBS(1<<12, 9, opts...)
		bat := NewFreeBS(1<<12, 9, opts...)
		edges := burstEdges(20000, 300, 24, 77)
		for _, e := range edges {
			seq.Observe(e.User, e.Item)
		}
		feedChunks(bat.ObserveBatch, edges)
		assertFreeBSEqual(t, seq, bat)
	}
}

func assertFreeBSEqual(t *testing.T, seq, bat *FreeBS) {
	t.Helper()
	if seq.edges != bat.edges {
		t.Fatalf("edges: seq %d, batch %d", seq.edges, bat.edges)
	}
	if seq.total != bat.total {
		t.Fatalf("total: seq %v, batch %v (must be bit-identical)", seq.total, bat.total)
	}
	if seq.est.Len() != bat.est.Len() {
		t.Fatalf("user counts: seq %d, batch %d", seq.est.Len(), bat.est.Len())
	}
	seq.est.Range(func(u uint64, e float64) {
		if be := bat.est.Ref(u); be == nil || *be != e {
			t.Fatalf("user %d: seq %v, batch %v", u, e, bat.est.Get(u))
		}
	})
	sa, err := seq.bits.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ba, err := bat.bits.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(sa) != string(ba) {
		t.Fatal("bit arrays differ")
	}
}

// TestFreeRSObserveBatchBitIdentical: the register-sharing analogue.
func TestFreeRSObserveBatchBitIdentical(t *testing.T) {
	for _, postQ := range []bool{false, true} {
		var opts []FreeRSOption
		if postQ {
			opts = append(opts, WithPostUpdateQRS())
		}
		seq := NewFreeRS(1<<10, 11, opts...)
		bat := NewFreeRS(1<<10, 11, opts...)
		edges := burstEdges(20000, 300, 24, 78)
		for _, e := range edges {
			seq.Observe(e.User, e.Item)
		}
		feedChunks(bat.ObserveBatch, edges)

		if seq.edges != bat.edges {
			t.Fatalf("edges: seq %d, batch %d", seq.edges, bat.edges)
		}
		if seq.total != bat.total {
			t.Fatalf("total: seq %v, batch %v (must be bit-identical)", seq.total, bat.total)
		}
		if seq.est.Len() != bat.est.Len() {
			t.Fatalf("user counts: seq %d, batch %d", seq.est.Len(), bat.est.Len())
		}
		seq.est.Range(func(u uint64, e float64) {
			if be := bat.est.Ref(u); be == nil || *be != e {
				t.Fatalf("user %d: seq %v, batch %v", u, e, bat.est.Get(u))
			}
		})
		sa, err := seq.regs.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		ba, err := bat.regs.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if string(sa) != string(ba) {
			t.Fatal("register arrays differ")
		}
		if err := bat.regs.Audit(); err != nil {
			t.Fatalf("batch path corrupted maintained statistics: %v", err)
		}
	}
}

// TestObserveBatchEmptyAndSingle covers the trivial batch shapes.
func TestObserveBatchEmptyAndSingle(t *testing.T) {
	f := NewFreeBS(256, 1)
	f.ObserveBatch(nil)
	f.ObserveBatch([]Edge{})
	if f.EdgesProcessed() != 0 || f.NumUsers() != 0 {
		t.Fatal("empty batch mutated state")
	}
	f.ObserveBatch([]Edge{{User: 5, Item: 6}})
	g := NewFreeBS(256, 1)
	g.Observe(5, 6)
	if f.Estimate(5) != g.Estimate(5) || f.EdgesProcessed() != g.EdgesProcessed() {
		t.Fatal("single-edge batch differs from Observe")
	}
}

// kernelState is everything ObserveBatch must leave exactly as the per-edge
// Observe loop does: the shared array, the counters, and the estimate table
// cell by cell in layout order, its capacity included.
type kernelState struct {
	array  string
	total  float64
	edges  uint64
	tabCap int
	layout []userEstimate
}

type userEstimate struct {
	user uint64
	est  float64
}

// kernelSketch is the surface the kernel tests drive on both sketches.
type kernelSketch interface {
	Observe(user, item uint64) bool
	ObserveBatch(edges []Edge)
}

func stateOf(t *testing.T, s kernelSketch) kernelState {
	t.Helper()
	var (
		st  kernelState
		arr []byte
		err error
		est *usertab.Table
	)
	switch f := s.(type) {
	case *FreeBS:
		arr, err = f.bits.MarshalBinary()
		st.total, st.edges, est = f.total, f.edges, f.est
		if aerr := f.bits.Clone().Audit(); aerr != nil {
			t.Fatal(aerr)
		}
	case *FreeRS:
		arr, err = f.regs.MarshalBinary()
		st.total, st.edges, est = f.total, f.edges, f.est
		if aerr := f.regs.Clone().Audit(); aerr != nil {
			t.Fatal(aerr)
		}
	default:
		t.Fatalf("unexpected sketch %T", s)
	}
	if err != nil {
		t.Fatal(err)
	}
	st.array = string(arr)
	st.tabCap = est.Cap()
	est.Range(func(u uint64, e float64) { st.layout = append(st.layout, userEstimate{u, e}) })
	return st
}

func assertSameState(t *testing.T, name string, want, got kernelState) {
	t.Helper()
	switch {
	case want.array != got.array:
		t.Fatalf("%s: shared arrays differ", name)
	case want.total != got.total:
		t.Fatalf("%s: total %v, want %v (must be bit-identical)", name, got.total, want.total)
	case want.edges != got.edges:
		t.Fatalf("%s: edges %d, want %d", name, got.edges, want.edges)
	case want.tabCap != got.tabCap:
		t.Fatalf("%s: table capacity %d, want %d", name, got.tabCap, want.tabCap)
	case len(want.layout) != len(got.layout):
		t.Fatalf("%s: %d users, want %d", name, len(got.layout), len(want.layout))
	}
	for i := range want.layout {
		if want.layout[i] != got.layout[i] {
			t.Fatalf("%s: table cell %d holds %+v, want %+v", name, i, got.layout[i], want.layout[i])
		}
	}
}

// kernelSketches builds identically seeded twins of every sketch variant the
// batch kernels serve: both sketches with both q orders, plus tiny arrays
// that the kernel tests drive to saturation.
func kernelSketches() []struct {
	name string
	mk   func() kernelSketch
} {
	return []struct {
		name string
		mk   func() kernelSketch
	}{
		{"FreeBS", func() kernelSketch { return NewFreeBS(1<<12, 9) }},
		{"FreeBS/postQ", func() kernelSketch { return NewFreeBS(1<<12, 9, WithPostUpdateQ()) }},
		{"FreeBS/tiny", func() kernelSketch { return NewFreeBS(64, 3) }},
		{"FreeBS/tiny/postQ", func() kernelSketch { return NewFreeBS(64, 3, WithPostUpdateQ()) }},
		{"FreeRS", func() kernelSketch { return NewFreeRS(1<<10, 11) }},
		{"FreeRS/postQ", func() kernelSketch { return NewFreeRS(1<<10, 11, WithPostUpdateQRS()) }},
		{"FreeRS/tiny", func() kernelSketch { return NewFreeRS(8, 5, WithRegisterWidth(2)) }},
		{"FreeRS/tiny/postQ", func() kernelSketch {
			return NewFreeRS(8, 5, WithRegisterWidth(2), WithPostUpdateQRS())
		}},
	}
}

// withUserZero relabels every fifth run's user to 0, the table's sidecar key.
func withUserZero(edges []Edge) []Edge {
	out := append([]Edge(nil), edges...)
	run := 0
	for i := range out {
		if i > 0 && edges[i].User != edges[i-1].User {
			run++
		}
		if run%5 == 0 {
			out[i].User = 0
		}
	}
	return out
}

// TestObserveBatchKernelBlockEdges feeds the two-pass kernels batches whose
// sizes sit on either side of the block size, runs longer than a block,
// user 0, and enough edges to saturate the tiny arrays, as one batch and
// as a stream of equal batches. State must match the per-edge loop exactly.
func TestObserveBatchKernelBlockEdges(t *testing.T) {
	const b = kernelBlock
	inputs := []struct {
		name  string
		edges []Edge
	}{
		{"bursty", burstEdges(6000, 300, 24, 5)},
		{"longruns", burstEdges(6000, 7, 5*b, 6)},
		{"onerun", burstEdges(3*b+7, 1, 3*b+7, 7)},
		{"user0", withUserZero(burstEdges(6000, 40, 2*b, 8))},
	}
	for _, sk := range kernelSketches() {
		for _, in := range inputs {
			seq := sk.mk()
			for _, e := range in.edges {
				seq.Observe(e.User, e.Item)
			}
			want := stateOf(t, seq)
			for _, size := range []int{1, b - 1, b, b + 1, 3*b + 7, len(in.edges)} {
				name := fmt.Sprintf("%s/%s/batch=%d", sk.name, in.name, size)
				bat := sk.mk()
				for lo := 0; lo < len(in.edges); lo += size {
					bat.ObserveBatch(in.edges[lo:min(lo+size, len(in.edges))])
				}
				assertSameState(t, name, want, stateOf(t, bat))
			}
		}
	}
	for _, sk := range kernelSketches() {
		for _, n := range []int{1, b - 1, b, b + 1, 3*b + 7} {
			edges := burstEdges(n, 3, 2*b, uint64(n))
			seq, bat := sk.mk(), sk.mk()
			for _, e := range edges {
				seq.Observe(e.User, e.Item)
			}
			bat.ObserveBatch(edges)
			assertSameState(t, fmt.Sprintf("%s/single/n=%d", sk.name, n), stateOf(t, seq), stateOf(t, bat))
		}
	}
}

// TestObserveBatchKernelSaturates: the tiny arrays must really reach
// saturation under the kernel tests' load, or those cases test nothing
// about it.
func TestObserveBatchKernelSaturates(t *testing.T) {
	bs := NewFreeBS(64, 3)
	rs := NewFreeRS(8, 5, WithRegisterWidth(2))
	edges := burstEdges(6000, 300, 24, 5)
	bs.ObserveBatch(edges)
	rs.ObserveBatch(edges)
	if !bs.Saturated() {
		t.Fatal("tiny FreeBS not saturated")
	}
	for i := 0; i < rs.regs.Size(); i++ {
		if rs.regs.Get(i) != rs.regs.MaxValue() {
			t.Fatalf("tiny FreeRS register %d = %d, not saturated", i, rs.regs.Get(i))
		}
	}
}

// TestObserveBatchKernelAfterSnapshot: a snapshot taken between batches
// shares the arrays with the live sketch, so the next batch's pass 1 reads
// shared words and its pass 2 detaches on the first write. The snapshot
// must not change, and the live sketch must still match the per-edge loop.
func TestObserveBatchKernelAfterSnapshot(t *testing.T) {
	edges := burstEdges(4000, 200, 3*kernelBlock, 9)
	half := len(edges) / 2
	for _, sk := range kernelSketches() {
		seq, bat := sk.mk(), sk.mk()
		for _, e := range edges {
			seq.Observe(e.User, e.Item)
		}
		bat.ObserveBatch(edges[:half])
		var snap kernelSketch
		switch f := bat.(type) {
		case *FreeBS:
			snap = f.Snapshot()
		case *FreeRS:
			snap = f.Snapshot()
		}
		frozen := stateOf(t, snap)
		bat.ObserveBatch(edges[half:])
		assertSameState(t, sk.name+"/snapshot", frozen, stateOf(t, snap))
		assertSameState(t, sk.name+"/live", stateOf(t, seq), stateOf(t, bat))
	}
}
