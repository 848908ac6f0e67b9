package main

import (
	"sort"

	"repro/internal/datagen"
	"repro/internal/exact"
	"repro/internal/hashing"
	"repro/internal/stream"
)

// passShift moves pass p's items into their own range (item + p<<passShift).
// datagen draws items below 4·MaxCard < 2^25, so passes never share a pair.
const passShift = 40

// source is a workload's edge stream: a Table-I-shaped datagen dataset
// (heavy-tailed users, 15% duplicates, shuffled arrival) repeated in passes
// whose items are relabelled into disjoint ranges. Each pass is therefore
// all-new pairs, not a replay: a replayed stream would be 100% duplicates.
type source struct {
	base   []stream.Edge
	passes int
	// trackers caches the exact truth of base sub-ranges, keyed by range.
	trackers map[[2]int]*exact.Tracker
}

// newSource generates the dataset and enough passes to cover minEdges.
func newSource(dataset string, scale float64, seed uint64, minEdges int) (*source, error) {
	cfg, err := datagen.PaperConfig(dataset, scale, seed)
	if err != nil {
		return nil, err
	}
	base := datagen.Generate(cfg).Edges
	passes := (minEdges + len(base) - 1) / len(base)
	if passes < 1 {
		passes = 1
	}
	return &source{base: base, passes: passes, trackers: make(map[[2]int]*exact.Tracker)}, nil
}

func (s *source) len() int { return len(s.base) * s.passes }

// fill copies edges [off, off+len(dst)) of the stream into dst.
func (s *source) fill(dst []stream.Edge, off int) []stream.Edge {
	for i := range dst {
		p, j := (off+i)/len(s.base), (off+i)%len(s.base)
		e := s.base[j]
		e.Item += uint64(p) << passShift
		dst[i] = e
	}
	return dst
}

// truth is the exact per-user and total distinct counts of a set of stream
// ranges, summed: a window of several generations sums its epochs, as the
// daemon's estimates do.
type truth struct {
	parts []truthPart
}

type truthPart struct {
	t    *exact.Tracker
	mult int
}

// addRange adds the exact truth of stream edges [a, b). Whole passes share
// one tracker over the dataset, scaled by the pass count, since passes are
// disjoint in items.
func (tr *truth) addRange(s *source, a, b int) {
	L := len(s.base)
	whole := 0
	for p := a / L; p*L < b; p++ {
		lo, hi := max(a, p*L)-p*L, min(b, (p+1)*L)-p*L
		if lo == 0 && hi == L {
			whole++
			continue
		}
		tr.parts = append(tr.parts, truthPart{s.tracker(lo, hi), 1})
	}
	if whole > 0 {
		tr.parts = append(tr.parts, truthPart{s.tracker(0, L), whole})
	}
}

func (s *source) tracker(lo, hi int) *exact.Tracker {
	key := [2]int{lo, hi}
	if t := s.trackers[key]; t != nil {
		return t
	}
	t := exact.NewTracker()
	for _, e := range s.base[lo:hi] {
		t.Observe(e.User, e.Item)
	}
	s.trackers[key] = t
	return t
}

func (tr *truth) card(u uint64) int {
	n := 0
	for _, p := range tr.parts {
		n += p.mult * p.t.Cardinality(u)
	}
	return n
}

func (tr *truth) total() int {
	n := 0
	for _, p := range tr.parts {
		n += p.mult * p.t.TotalCardinality()
	}
	return n
}

// users returns every user present in the truth, ascending.
func (tr *truth) users() []uint64 {
	seen := make(map[uint64]struct{})
	for _, p := range tr.parts {
		p.t.Users(func(u uint64, _ int) { seen[u] = struct{}{} })
	}
	out := make([]uint64, 0, len(seen))
	for u := range seen {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sample is the set of users whose estimates a run reads back.
type sample struct {
	heavy   []uint64 // the largest users by exact cardinality
	present []uint64 // uniformly drawn present users
	absent  []uint64 // users that never occur in the stream
}

// absentBase is far above every datagen user id.
const absentBase = 1 << 62

// drawSample picks nHeavy heaviest, nPresent random present and nAbsent
// absent users, deterministically from seed.
func drawSample(tr *truth, seed uint64, nHeavy, nPresent, nAbsent int) sample {
	users := tr.users()
	byCard := append([]uint64(nil), users...)
	cards := make(map[uint64]int, len(users))
	for _, u := range users {
		cards[u] = tr.card(u)
	}
	sort.Slice(byCard, func(i, j int) bool {
		ci, cj := cards[byCard[i]], cards[byCard[j]]
		return ci > cj || (ci == cj && byCard[i] < byCard[j])
	})
	var s sample
	s.heavy = byCard[:min(nHeavy, len(byCard))]
	rng := hashing.NewRNG(seed ^ 0x9e3779b97f4a7c15)
	perm := rng.Perm(len(users))
	for _, i := range perm[:min(nPresent, len(perm))] {
		s.present = append(s.present, users[i])
	}
	for i := 0; i < nAbsent; i++ {
		s.absent = append(s.absent, absentBase+uint64(i))
	}
	return s
}

// exactTop returns the k heaviest users by exact cardinality.
func exactTop(tr *truth, k int) []uint64 {
	return drawSample(tr, 0, k, 0, 0).heavy
}
