package regarray

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/hashing"
)

func TestNewAllZero(t *testing.T) {
	for _, w := range []uint8{1, 4, 5, 6, 8} {
		a := New(100, w)
		if a.Size() != 100 || a.Width() != w || a.MaxValue() != 1<<w-1 {
			t.Fatalf("w=%d: bad metadata", w)
		}
		if a.ZeroCount() != 100 {
			t.Fatalf("w=%d: fresh zeros = %d", w, a.ZeroCount())
		}
		for i := 0; i < 100; i++ {
			if a.Get(i) != 0 {
				t.Fatalf("w=%d: register %d nonzero", w, i)
			}
		}
		if got := a.HarmonicSum(); math.Abs(got-100) > 1e-12 {
			t.Fatalf("w=%d: fresh harmonic sum = %v, want 100", w, got)
		}
		if got := a.ChangeProbability(); math.Abs(got-1) > 1e-12 {
			t.Fatalf("w=%d: fresh q = %v, want 1", w, got)
		}
	}
}

func TestNewPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, 5) },
		func() { New(-1, 5) },
		func() { New(10, 0) },
		func() { New(10, 9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestExactModeSelection(t *testing.T) {
	if !New(1<<20, 5).Exact() {
		t.Fatal("w=5 M=1M should be exact")
	}
	if New(2, 6).Exact() {
		t.Fatal("w=6 cannot be exact (2*2^63 overflows)")
	}
	if !New(1, 6).Exact() {
		t.Fatal("w=6 M=1 fits exactly")
	}
	if New(10, 8).Exact() {
		t.Fatal("w=8 cannot be exact")
	}
}

func TestSetGetAllWidths(t *testing.T) {
	// Every register must store and return every representable value, at
	// positions that straddle word boundaries.
	for _, w := range []uint8{1, 3, 5, 6, 7, 8} {
		a := New(300, w)
		maxv := int(a.MaxValue())
		for i := 0; i < 300; i++ {
			v := uint8((i*7 + 1) % (maxv + 1))
			a.set(i, v)
			if got := a.Get(i); got != v {
				t.Fatalf("w=%d reg=%d: set %d got %d", w, i, v, got)
			}
		}
		// Verify neighbours were not disturbed by the last writes.
		for i := 0; i < 300; i++ {
			v := uint8((i*7 + 1) % (maxv + 1))
			if got := a.Get(i); got != v {
				t.Fatalf("w=%d reg=%d: neighbour disturbed, want %d got %d", w, i, v, got)
			}
		}
	}
}

func TestUpdateMaxSemantics(t *testing.T) {
	a := New(10, 5)
	old, changed := a.UpdateMax(3, 7)
	if old != 0 || !changed {
		t.Fatalf("first update: old=%d changed=%v", old, changed)
	}
	old, changed = a.UpdateMax(3, 7)
	if old != 7 || changed {
		t.Fatalf("equal update must not change: old=%d changed=%v", old, changed)
	}
	old, changed = a.UpdateMax(3, 4)
	if old != 7 || changed {
		t.Fatalf("smaller update must not change: old=%d changed=%v", old, changed)
	}
	old, changed = a.UpdateMax(3, 9)
	if old != 7 || !changed {
		t.Fatalf("larger update must change: old=%d changed=%v", old, changed)
	}
	if a.Get(3) != 9 {
		t.Fatalf("register = %d, want 9", a.Get(3))
	}
}

func TestUpdateMaxClamps(t *testing.T) {
	a := New(4, 5)
	a.UpdateMax(0, 200)
	if a.Get(0) != 31 {
		t.Fatalf("clamp failed: %d", a.Get(0))
	}
	if err := a.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestZeroCountMaintained(t *testing.T) {
	a := New(64, 5)
	a.UpdateMax(0, 1)
	a.UpdateMax(0, 2) // same register: zeros decremented once
	a.UpdateMax(1, 3)
	if a.ZeroCount() != 62 {
		t.Fatalf("zeros = %d, want 62", a.ZeroCount())
	}
}

func TestScaledHarmonicSumMaintained(t *testing.T) {
	a := New(8, 5)
	// Fresh: 8 * 2^31.
	if a.ScaledHarmonicSum() != 8<<31 {
		t.Fatalf("fresh scaled = %d", a.ScaledHarmonicSum())
	}
	a.UpdateMax(2, 1)
	want := uint64(7)<<31 + 1<<30
	if a.ScaledHarmonicSum() != want {
		t.Fatalf("scaled = %d, want %d", a.ScaledHarmonicSum(), want)
	}
	a.UpdateMax(2, 31)
	want = uint64(7)<<31 + 1
	if a.ScaledHarmonicSum() != want {
		t.Fatalf("scaled = %d, want %d", a.ScaledHarmonicSum(), want)
	}
}

func TestHarmonicSumMatchesDefinition(t *testing.T) {
	for _, w := range []uint8{5, 6} {
		a := New(50, w)
		rng := hashing.NewRNG(uint64(w))
		for i := 0; i < 500; i++ {
			a.UpdateMax(rng.Intn(50), uint8(rng.Intn(int(a.MaxValue())+1)))
		}
		want := 0.0
		for i := 0; i < 50; i++ {
			want += math.Exp2(-float64(a.Get(i)))
		}
		if got := a.HarmonicSum(); math.Abs(got-want) > 1e-9*want {
			t.Fatalf("w=%d: harmonic sum %v, want %v", w, got, want)
		}
	}
}

func TestIncrementalEqualsRecomputedQuick(t *testing.T) {
	// The central exactness property: after any sequence of UpdateMax, the
	// maintained zero count and scaled sum equal full recomputation exactly.
	f := func(seed uint64, nOps uint16) bool {
		a := New(101, 5)
		rng := hashing.NewRNG(seed)
		for i := 0; i < int(nOps%3000); i++ {
			a.UpdateMax(rng.Intn(101), uint8(rng.Intn(40))) // includes clamped values
		}
		return a.Audit() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestChangeProbabilityDecreases(t *testing.T) {
	// q_R is non-increasing as registers grow — the dynamic property FreeRS
	// exploits.
	a := New(64, 5)
	rng := hashing.NewRNG(3)
	prev := a.ChangeProbability()
	if prev != 1 {
		t.Fatalf("initial q = %v", prev)
	}
	for i := 0; i < 2000; i++ {
		a.UpdateMax(rng.Intn(64), hashing.Rho(rng.Uint64(), 31))
		q := a.ChangeProbability()
		if q > prev+1e-15 {
			t.Fatalf("q increased from %v to %v", prev, q)
		}
		prev = q
	}
}

func TestReset(t *testing.T) {
	a := New(32, 5)
	for i := 0; i < 32; i++ {
		a.UpdateMax(i, uint8(i%31+1))
	}
	a.Reset()
	if a.ZeroCount() != 32 || a.HarmonicSum() != 32 {
		t.Fatalf("reset: zeros=%d hs=%v", a.ZeroCount(), a.HarmonicSum())
	}
	if err := a.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestClone(t *testing.T) {
	a := New(16, 5)
	a.UpdateMax(3, 9)
	c := a.Clone()
	c.UpdateMax(4, 2)
	if a.Get(4) != 0 {
		t.Fatal("clone mutation leaked")
	}
	if c.Get(3) != 9 {
		t.Fatal("clone lost value")
	}
	if err := a.Audit(); err != nil {
		t.Fatal(err)
	}
	if err := c.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestUnionWith(t *testing.T) {
	a, b := New(8, 5), New(8, 5)
	a.UpdateMax(0, 5)
	a.UpdateMax(1, 2)
	b.UpdateMax(1, 7)
	b.UpdateMax(2, 3)
	if err := a.UnionWith(b); err != nil {
		t.Fatal(err)
	}
	want := []uint8{5, 7, 3, 0, 0, 0, 0, 0}
	for i, w := range want {
		if a.Get(i) != w {
			t.Fatalf("union reg %d = %d, want %d", i, a.Get(i), w)
		}
	}
	if err := a.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestUnionMismatch(t *testing.T) {
	a := New(8, 5)
	if err := a.UnionWith(New(8, 6)); err == nil {
		t.Fatal("width mismatch accepted")
	}
	if err := a.UnionWith(New(9, 5)); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if err := a.UnionWith(nil); err == nil {
		t.Fatal("nil accepted")
	}
}

func TestUnionIsMaxQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := hashing.NewRNG(seed)
		a, b := New(37, 5), New(37, 5)
		ref := make([]uint8, 37)
		for i := 0; i < 200; i++ {
			ia, va := rng.Intn(37), uint8(rng.Intn(32))
			ib, vb := rng.Intn(37), uint8(rng.Intn(32))
			a.UpdateMax(ia, va)
			b.UpdateMax(ib, vb)
			if va > ref[ia] {
				ref[ia] = va
			}
			if vb > ref[ib] {
				ref[ib] = vb
			}
		}
		if err := a.UnionWith(b); err != nil {
			return false
		}
		for i, w := range ref {
			if a.Get(i) != w {
				return false
			}
		}
		return a.Audit() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	for _, w := range []uint8{1, 5, 6, 8} {
		for _, size := range []int{1, 12, 64, 100} {
			a := New(size, w)
			rng := hashing.NewRNG(uint64(size) + uint64(w)<<32)
			for i := 0; i < size*3; i++ {
				a.UpdateMax(rng.Intn(size), uint8(rng.Intn(int(a.MaxValue())+1)))
			}
			data, err := a.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			var c Array
			if err := c.UnmarshalBinary(data); err != nil {
				t.Fatalf("w=%d size=%d: %v", w, size, err)
			}
			if c.Size() != a.Size() || c.Width() != a.Width() || c.ZeroCount() != a.ZeroCount() {
				t.Fatalf("w=%d size=%d: metadata mismatch", w, size)
			}
			for i := 0; i < size; i++ {
				if a.Get(i) != c.Get(i) {
					t.Fatalf("w=%d size=%d reg=%d differs", w, size, i)
				}
			}
			if math.Abs(a.HarmonicSum()-c.HarmonicSum()) > 1e-12 {
				t.Fatalf("w=%d size=%d: harmonic sum differs", w, size)
			}
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	var a Array
	cases := [][]byte{
		nil,
		[]byte("RAR"),
		[]byte("XXXX123456789"),
		append([]byte("RARR"), make([]byte, 9)...),                // size 0
		append([]byte("RARR"), 4, 0, 0, 0, 0, 0, 0, 0, 9),         // width 9
		append([]byte("RARR"), 200, 0, 0, 0, 0, 0, 0, 0, 5, 1, 2), // short payload
	}
	for i, c := range cases {
		if err := a.UnmarshalBinary(c); err == nil {
			t.Fatalf("case %d: garbage accepted", i)
		}
	}
}

func TestGetOutOfRangePanics(t *testing.T) {
	a := New(10, 5)
	for _, i := range []int{-1, 10} {
		func() {
			defer func() {
				want := fmt.Sprintf("regarray: index %d out of range [0,10)", i)
				if got := fmt.Sprint(recover()); got != want {
					t.Fatalf("panic %q, want %q", got, want)
				}
			}()
			a.Get(i)
		}()
	}
}

func TestScaledPanicsWhenInexact(t *testing.T) {
	a := New(10, 6)
	defer func() {
		if recover() == nil {
			t.Fatal("ScaledHarmonicSum on inexact array must panic")
		}
	}()
	_ = a.ScaledHarmonicSum()
}

func TestAuditRepairs(t *testing.T) {
	a := New(16, 5)
	a.UpdateMax(0, 3)
	a.zeros = 16 // corrupt
	if err := a.Audit(); err == nil {
		t.Fatal("audit must detect corruption")
	}
	if a.ZeroCount() != 15 {
		t.Fatalf("repair failed: zeros=%d", a.ZeroCount())
	}
	if err := a.Audit(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUpdateMax(b *testing.B) {
	a := New(1<<20, 5)
	rng := hashing.NewRNG(1)
	idx := make([]int, 4096)
	val := make([]uint8, 4096)
	for i := range idx {
		idx[i] = rng.Intn(1 << 20)
		val[i] = hashing.Rho(rng.Uint64(), 31)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.UpdateMax(idx[i&4095], val[i&4095])
	}
}

func BenchmarkGet(b *testing.B) {
	a := New(1<<20, 5)
	b.ResetTimer()
	var acc uint8
	for i := 0; i < b.N; i++ {
		acc += a.Get(i & (1<<20 - 1))
	}
	_ = acc
}
