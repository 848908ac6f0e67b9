package core

import (
	"fmt"
	"testing"

	"repro/internal/bitarray"
	"repro/internal/hashing"
	"repro/internal/regarray"
	"repro/internal/stream"
)

// The map twins below are reference implementations of the FreeBS and
// FreeRS update rules, written from the paper rather than from the batch
// kernels: one edge at a time, the pre-update q of Theorems 1 and 2, and
// the per-user estimates in the plain map[uint64]float64 the flat table
// (internal/usertab) replaced. The sketch arrays and hash seeds are derived
// as NewFreeBS and NewFreeRS derive them, so every credit is issued at the
// same instant with the same value, and a kernel fed the same stream must
// end bit-identical to its twin: same user count, same total, same
// estimate for every user.

// Seed-mixing constants, as in NewFreeBS and NewFreeRS.
const (
	twinBSSeedMix     = 0x6a09e667f3bcc908
	twinRSSeedIdxMix  = 0xbb67ae8584caa73b
	twinRSSeedRankMix = 0x3c6ef372fe94f82b
)

// mapEstimates is the per-user store both twins keep.
type mapEstimates struct {
	est map[uint64]float64
	sum float64
}

// credit adds inc to user's running estimate and to the total.
func (m *mapEstimates) credit(user uint64, inc float64) {
	m.est[user] += inc
	m.sum += inc
}

type mapBS struct {
	mapEstimates
	bits *bitarray.BitArray
	seed uint64
}

func newMapBS(mbits int, seed uint64) *mapBS {
	return &mapBS{
		mapEstimates: mapEstimates{est: make(map[uint64]float64)},
		bits:         bitarray.New(mbits),
		seed:         hashing.Mix64(seed ^ twinBSSeedMix),
	}
}

func (m *mapBS) observeBatch(edges []Edge) {
	size := m.bits.Size()
	stream.ForEachRun(edges, func(user uint64, run []Edge) {
		prefix := hashing.HashPairPrefix(user)
		for _, ed := range run {
			idx := hashing.UniformIndex(hashing.HashPairFinish(prefix, ed.Item, m.seed), size)
			m0 := m.bits.ZeroCount()
			if m.bits.Set(idx) {
				m.credit(user, float64(size)/float64(m0))
			}
		}
	})
}

type mapRS struct {
	mapEstimates
	regs  *regarray.Array
	sIdx  uint64
	sRank uint64
}

func newMapRS(mbits int, seed uint64) *mapRS {
	return &mapRS{
		mapEstimates: mapEstimates{est: make(map[uint64]float64)},
		regs:         regarray.New(mbits/DefaultRegisterWidth, DefaultRegisterWidth),
		sIdx:         hashing.Mix64(seed ^ twinRSSeedIdxMix),
		sRank:        hashing.Mix64(seed ^ twinRSSeedRankMix),
	}
}

func (m *mapRS) observeBatch(edges []Edge) {
	size := m.regs.Size()
	maxVal := m.regs.MaxValue()
	stream.ForEachRun(edges, func(user uint64, run []Edge) {
		prefix := hashing.HashPairPrefix(user)
		for _, ed := range run {
			idx := hashing.UniformIndex(hashing.HashPairFinish(prefix, ed.Item, m.sIdx), size)
			rank := hashing.Rho(hashing.HashPairFinish(prefix, ed.Item, m.sRank), maxVal)
			q := m.regs.ChangeProbability()
			if _, changed := m.regs.UpdateMax(idx, rank); changed {
				m.credit(user, 1/q)
			}
		}
	})
}

// coverageBurstEdges builds a bursty stream over exactly `users` distinct
// users: a first pass visits every user once in shuffled order (a short run
// each), then random bursts fill the remaining budget, so the distinct-user
// count is the workload parameter, not a side effect of sampling.
func coverageBurstEdges(n, users int, seed uint64) []Edge {
	rng := hashing.NewRNG(seed)
	edges := make([]Edge, 0, n)
	for i, u := range rng.Perm(users) {
		// Cap the burst so one edge per user still waiting always fits.
		run := min(rng.Intn(3)+1, n-len(edges)-(users-i-1))
		for r := 0; r < run; r++ {
			edges = append(edges, Edge{User: uint64(u) + 1, Item: rng.Uint64()})
		}
	}
	for len(edges) < n {
		u := uint64(rng.Intn(users) + 1)
		run := rng.Intn(16) + 1
		for r := 0; r < run && len(edges) < n; r++ {
			edges = append(edges, Edge{User: u, Item: rng.Uint64()})
		}
	}
	return edges
}

// feedBatches feeds edges to observeBatch in chunks of size chunk.
func feedBatches(observeBatch func([]Edge), edges []Edge, chunk int) {
	for i := 0; i < len(edges); i += chunk {
		observeBatch(edges[i:min(i+chunk, len(edges))])
	}
}

// assertMatchesTwin requires the kernel-fed sketch to hold exactly the
// twin's per-user state.
func assertMatchesTwin(t *testing.T, name string, got interface {
	NumUsers() int
	TotalDistinct() float64
	Estimate(user uint64) float64
}, twin *mapEstimates) {
	t.Helper()
	if got.NumUsers() != len(twin.est) {
		t.Fatalf("%s: %d users, map twin has %d", name, got.NumUsers(), len(twin.est))
	}
	if got.TotalDistinct() != twin.sum {
		t.Fatalf("%s: total %v, map twin %v", name, got.TotalDistinct(), twin.sum)
	}
	for u, e := range twin.est {
		if g := got.Estimate(u); g != e {
			t.Fatalf("%s: user %d estimate %v, map twin %v", name, u, g, e)
		}
	}
}

// TestCoverageWorkload pins the workload generator's contract: exactly the
// requested edge count over exactly the requested distinct users, every
// user in 1..users, deterministic in the seed.
func TestCoverageWorkload(t *testing.T) {
	edges := coverageBurstEdges(50_000, 10_000, 3)
	if len(edges) != 50_000 {
		t.Fatalf("%d edges, want 50000", len(edges))
	}
	users := make(map[uint64]bool)
	for _, e := range edges {
		users[e.User] = true
		if e.User == 0 || e.User > 10_000 {
			t.Fatalf("user %d out of range", e.User)
		}
	}
	if len(users) != 10_000 {
		t.Fatalf("%d distinct users, want 10000", len(users))
	}
	again := coverageBurstEdges(50_000, 10_000, 3)
	for i := range edges {
		if edges[i] != again[i] {
			t.Fatal("workload not deterministic")
		}
	}
	// The tight-budget extreme: edges == users still covers every user
	// (bursts are capped so nobody is starved of their first edge).
	tight := coverageBurstEdges(5_000, 5_000, 11)
	seen := make(map[uint64]bool)
	for _, e := range tight {
		seen[e.User] = true
	}
	if len(tight) != 5_000 || len(seen) != 5_000 {
		t.Fatalf("tight budget: %d edges, %d distinct users, want 5000/5000", len(tight), len(seen))
	}
}

// checkMapTwins feeds one workload shape to FreeBS and FreeRS through
// ObserveBatch in chunks of chunk edges and to their map twins, requires
// each kernel to end bit-identical to its twin, and returns both sketches.
func checkMapTwins(t *testing.T, edges, users, mbits, chunk int, seed uint64) (*FreeBS, *FreeRS) {
	t.Helper()
	work := coverageBurstEdges(edges, users, seed)
	seen := make(map[uint64]bool, users)
	for _, e := range work {
		seen[e.User] = true
	}
	if len(work) != edges || len(seen) != users {
		t.Fatalf("workload: %d edges over %d users, want %d over %d",
			len(work), len(seen), edges, users)
	}
	shape := fmt.Sprintf("%d edges/%d users/M=%d", edges, users, mbits)

	bs, twinBS := NewFreeBS(mbits, 7), newMapBS(mbits, 7)
	feedBatches(bs.ObserveBatch, work, chunk)
	twinBS.observeBatch(work)
	assertMatchesTwin(t, "FreeBS "+shape, bs, &twinBS.mapEstimates)

	rs, twinRS := NewFreeRS(mbits/DefaultRegisterWidth, 7), newMapRS(mbits, 7)
	feedBatches(rs.ObserveBatch, work, chunk)
	twinRS.observeBatch(work)
	assertMatchesTwin(t, "FreeRS "+shape, rs, &twinRS.mapEstimates)
	return bs, rs
}

// TestMapTwinMatchesCore checks the FreeBS and FreeRS batch kernels against
// the map twins on a small array driven deep into saturation, where most
// pairs credit nothing.
func TestMapTwinMatchesCore(t *testing.T) {
	checkMapTwins(t, 30_000, 2_000, 1<<16, 512, 9)
}

// TestMapTwinMatchesCoreAtScale checks the kernels against the map twins on
// a million-bit array holding 100k users. Not every user earns a credit (a
// user whose few pairs all land on already-set bits, or raise no register,
// keeps estimate 0), but the bulk must.
func TestMapTwinMatchesCoreAtScale(t *testing.T) {
	bs, rs := checkMapTwins(t, 600_000, 100_000, 1<<20, 1024, 1)
	for name, n := range map[string]int{"FreeBS": bs.NumUsers(), "FreeRS": rs.NumUsers()} {
		if n < 85_000 || n > 100_000 {
			t.Fatalf("%s: %d users credited of 100000", name, n)
		}
	}
}
