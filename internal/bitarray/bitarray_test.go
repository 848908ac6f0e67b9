package bitarray

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/hashing"
)

func TestNewAllZero(t *testing.T) {
	b := New(129)
	if b.Size() != 129 || b.ZeroCount() != 129 || b.OnesCount() != 0 {
		t.Fatalf("fresh array: size=%d zeros=%d ones=%d", b.Size(), b.ZeroCount(), b.OnesCount())
	}
	for i := 0; i < 129; i++ {
		if b.Get(i) {
			t.Fatalf("bit %d set in fresh array", i)
		}
	}
	if b.ZeroFraction() != 1.0 {
		t.Fatalf("fresh zero fraction = %v", b.ZeroFraction())
	}
}

func TestNewPanicsOnBadSize(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%d) did not panic", n)
				}
			}()
			New(n)
		}()
	}
}

func TestSetGetRoundTrip(t *testing.T) {
	b := New(200)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		if !b.Set(i) {
			t.Fatalf("Set(%d) reported no change on zero bit", i)
		}
		if !b.Get(i) {
			t.Fatalf("Get(%d) false after Set", i)
		}
		if b.Set(i) {
			t.Fatalf("Set(%d) reported change on one bit", i)
		}
	}
	if b.OnesCount() != 8 {
		t.Fatalf("ones = %d, want 8", b.OnesCount())
	}
}

func TestSetDoesNotDisturbNeighbors(t *testing.T) {
	b := New(256)
	b.Set(100)
	for i := 0; i < 256; i++ {
		if (i == 100) != b.Get(i) {
			t.Fatalf("bit %d has wrong value after Set(100)", i)
		}
	}
}

func TestClear(t *testing.T) {
	b := New(70)
	b.Set(69)
	if !b.Clear(69) {
		t.Fatal("Clear on set bit must report change")
	}
	if b.Get(69) {
		t.Fatal("bit still set after Clear")
	}
	if b.Clear(69) {
		t.Fatal("Clear on zero bit must report no change")
	}
	if b.ZeroCount() != 70 {
		t.Fatalf("zeros = %d after set+clear, want 70", b.ZeroCount())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	b := New(64)
	for _, c := range []struct {
		f    func()
		want string
	}{
		{func() { b.Get(-1) }, "bitarray: index -1 out of range [0,64)"},
		{func() { b.Get(64) }, "bitarray: index 64 out of range [0,64)"},
		{func() { b.Set(-1) }, "bitarray: index -1 out of range [0,64)"},
		{func() { b.Set(64) }, "bitarray: index 64 out of range [0,64)"},
		{func() { b.Clear(-1) }, "bitarray: index -1 out of range [0,64)"},
		{func() { b.Clear(64) }, "bitarray: index 64 out of range [0,64)"},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("expected panic on out-of-range index")
				}
				if got := fmt.Sprint(r); got != c.want {
					t.Fatalf("panic %q, want %q", got, c.want)
				}
			}()
			c.f()
		}()
	}
}

func TestZeroCountMaintained(t *testing.T) {
	b := New(1000)
	rng := hashing.NewRNG(42)
	for i := 0; i < 5000; i++ {
		b.Set(rng.Intn(1000))
	}
	if err := b.Audit(); err != nil {
		t.Fatalf("audit after random sets: %v", err)
	}
}

func TestZeroCountMaintainedWithClears(t *testing.T) {
	b := New(333)
	rng := hashing.NewRNG(7)
	for i := 0; i < 10000; i++ {
		idx := rng.Intn(333)
		if rng.Intn(3) == 0 {
			b.Clear(idx)
		} else {
			b.Set(idx)
		}
	}
	if err := b.Audit(); err != nil {
		t.Fatalf("audit after mixed ops: %v", err)
	}
}

func TestZeroCountPropertyQuick(t *testing.T) {
	// Property: for any operation sequence, maintained zero count equals the
	// recomputed count.
	f := func(seed uint64, nOps uint16) bool {
		b := New(257) // non-multiple of 64 to exercise the partial word
		rng := hashing.NewRNG(seed)
		for i := 0; i < int(nOps%2000); i++ {
			idx := rng.Intn(257)
			if rng.Intn(4) == 0 {
				b.Clear(idx)
			} else {
				b.Set(idx)
			}
		}
		return b.Audit() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReset(t *testing.T) {
	b := New(128)
	for i := 0; i < 128; i += 3 {
		b.Set(i)
	}
	b.Reset()
	if b.ZeroCount() != 128 {
		t.Fatalf("zeros after reset = %d", b.ZeroCount())
	}
	for i := 0; i < 128; i++ {
		if b.Get(i) {
			t.Fatalf("bit %d survived reset", i)
		}
	}
}

func TestSaturation(t *testing.T) {
	b := New(65)
	for i := 0; i < 65; i++ {
		b.Set(i)
	}
	if b.ZeroCount() != 0 || b.ZeroFraction() != 0 {
		t.Fatalf("saturated array zeros = %d", b.ZeroCount())
	}
	if err := b.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestClone(t *testing.T) {
	b := New(100)
	b.Set(5)
	c := b.Clone()
	c.Set(6)
	if b.Get(6) {
		t.Fatal("clone mutation leaked into original")
	}
	if !c.Get(5) {
		t.Fatal("clone lost original bit")
	}
	if b.ZeroCount() != 99 || c.ZeroCount() != 98 {
		t.Fatalf("zero counts: orig=%d clone=%d", b.ZeroCount(), c.ZeroCount())
	}
}

func TestUnionWith(t *testing.T) {
	a := New(130)
	b := New(130)
	a.Set(0)
	a.Set(129)
	b.Set(64)
	b.Set(129)
	if err := a.UnionWith(b); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 64, 129} {
		if !a.Get(i) {
			t.Fatalf("union missing bit %d", i)
		}
	}
	if a.OnesCount() != 3 {
		t.Fatalf("union ones = %d, want 3", a.OnesCount())
	}
	if err := a.Audit(); err != nil {
		t.Fatalf("union broke zero count: %v", err)
	}
}

func TestUnionSizeMismatch(t *testing.T) {
	a := New(10)
	if err := a.UnionWith(New(11)); err == nil {
		t.Fatal("union of mismatched sizes must error")
	}
	if err := a.UnionWith(nil); err == nil {
		t.Fatal("union with nil must error")
	}
}

func TestUnionEquivalentToSetUnion(t *testing.T) {
	// Property: union of two randomly filled arrays has exactly the bits of
	// the set union.
	f := func(seed uint64) bool {
		rng := hashing.NewRNG(seed)
		a, b := New(191), New(191)
		ref := make(map[int]bool)
		for i := 0; i < 100; i++ {
			x, y := rng.Intn(191), rng.Intn(191)
			a.Set(x)
			b.Set(y)
			ref[x] = true
			ref[y] = true
		}
		if err := a.UnionWith(b); err != nil {
			return false
		}
		for i := 0; i < 191; i++ {
			if a.Get(i) != ref[i] {
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
	for _, size := range []int{1, 63, 64, 65, 1000} {
		b := New(size)
		rng := hashing.NewRNG(uint64(size))
		for i := 0; i < size/2+1; i++ {
			b.Set(rng.Intn(size))
		}
		data, err := b.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var c BitArray
		if err := c.UnmarshalBinary(data); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if c.Size() != b.Size() || c.ZeroCount() != b.ZeroCount() {
			t.Fatalf("size %d: round trip mismatch", size)
		}
		for i := 0; i < size; i++ {
			if b.Get(i) != c.Get(i) {
				t.Fatalf("size %d: bit %d differs", size, i)
			}
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	var b BitArray
	cases := [][]byte{
		nil,
		[]byte("x"),
		[]byte("NOPE12345678"),
		append([]byte("BARR"), make([]byte, 8)...),           // size 0
		append([]byte("BARR"), 1, 0, 0, 0, 0, 0, 0, 0, 1, 2), // wrong payload len
	}
	for i, c := range cases {
		if err := b.UnmarshalBinary(c); err == nil {
			t.Fatalf("case %d: garbage accepted", i)
		}
	}
}

func TestAuditRepairs(t *testing.T) {
	b := New(64)
	b.Set(1)
	b.zeros = 0 // corrupt deliberately
	if err := b.Audit(); err == nil {
		t.Fatal("audit must detect corruption")
	}
	if b.ZeroCount() != 63 {
		t.Fatalf("audit did not repair: zeros=%d", b.ZeroCount())
	}
	if err := b.Audit(); err != nil {
		t.Fatalf("audit after repair: %v", err)
	}
}

func BenchmarkSet(b *testing.B) {
	arr := New(1 << 20)
	rng := hashing.NewRNG(1)
	idx := make([]int, 4096)
	for i := range idx {
		idx[i] = rng.Intn(1 << 20)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arr.Set(idx[i&4095])
	}
}

func BenchmarkGet(b *testing.B) {
	arr := New(1 << 20)
	for i := 0; i < 1<<19; i++ {
		arr.Set(i * 2)
	}
	b.ResetTimer()
	acc := false
	for i := 0; i < b.N; i++ {
		acc = acc != arr.Get(i&(1<<20-1))
	}
	_ = acc
}
