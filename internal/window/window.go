package window

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Ring holds up to k live generations of E, newest first. All access runs
// under one mutex, which is what makes rotation safe to interleave with
// batched ingestion: a Feed call is attributed wholly to the epoch current
// at its start, and a concurrent Rotate waits for it.
type Ring[E any] struct {
	mu       sync.Mutex
	build    func() E
	gens     []E // gens[0] is the current generation, gens[len-1] the oldest live
	k        int
	epoch    uint64 // rotations performed so far
	edges    uint64 // edges attributed to the current epoch
	every    uint64 // Feed rotates once edges reaches every; 0 = only Rotate does
	onRetire func(E)

	// ver counts state changes (feeds, rotations, adoptions). It is bumped
	// under mu but read without it (Version), which is what lets a
	// snapshot-publication layer above the ring check "is my published view
	// still current?" with one atomic load instead of taking the lock.
	ver atomic.Uint64
}

// New returns a ring of k generations (k >= 2); build must return a fresh,
// non-nil generation and is called once now and once per rotation. A Feed
// that brings the current epoch to every edges rotates the ring; every == 0
// leaves rotation to explicit Rotate calls. It panics if k < 2 or build is
// nil or returns nil.
func New[E any](k int, build func() E, every uint64) *Ring[E] {
	if k < 2 {
		panic(fmt.Sprintf("window: need at least 2 generations, got %d", k))
	}
	if build == nil {
		panic("window: New requires a build function")
	}
	r := &Ring[E]{build: build, gens: make([]E, 1, k), k: k, every: every}
	r.gens[0] = mustBuild(build)
	return r
}

// NewAdopted returns a ring holding the given live generations (newest
// first) at the given epoch and edges-in-epoch count, without building a
// throwaway initial generation — the constructor behind O(1) snapshot views
// and restores, which already hold the generations they want live. The same
// invariants as Adopt apply (live == min(epoch+1, k), no nil generations);
// build and every are kept for later rotations, as in New.
func NewAdopted[E any](k int, build func() E, gens []E, epoch, edges, every uint64) (*Ring[E], error) {
	if k < 2 {
		panic(fmt.Sprintf("window: need at least 2 generations, got %d", k))
	}
	if build == nil {
		panic("window: NewAdopted requires a build function")
	}
	r := &Ring[E]{build: build, k: k, every: every}
	if err := r.adoptLocked(gens, epoch, edges); err != nil {
		return nil, err
	}
	return r, nil
}

func mustBuild[E any](build func() E) E {
	g := build()
	if any(g) == nil {
		panic("window: build returned nil generation")
	}
	return g
}

// OnRetire registers fn to be called with each generation the moment a
// rotation evicts it — after it has stopped being live but before the new
// epoch opens, under the ring lock, so fn observes the retired generation's
// final state exactly once and no Feed can interleave. fn runs on whichever
// goroutine triggered the rotation (an explicit Rotate or a Feed that
// reached the edge count) and must be fast and must not call back into the
// ring (the lock is not reentrant). Rotations before the ring is full do
// not retire anything (the ring grows instead), and Adopt replaces
// generations without retiring them — the hook reports aged-out history,
// not every discarded pointer. Passing nil removes the hook.
func (r *Ring[E]) OnRetire(fn func(E)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onRetire = fn
}

// K returns the configured generation count.
func (r *Ring[E]) K() int { return r.k }

// Epoch returns how many rotations have happened.
func (r *Ring[E]) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// Live returns the number of live generations (1 before the first rotation,
// growing to k).
func (r *Ring[E]) Live() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.gens)
}

// EdgesInEpoch returns how many edges the current epoch has absorbed.
func (r *Ring[E]) EdgesInEpoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.edges
}

// Feed runs fn on the current generation, attributes n more edges to the
// current epoch, then rotates at most once if the epoch has reached the
// ring's edge count. The entire call holds the ring lock, so a batch is never
// torn across generations: its edges all land in the generation that was
// current when Feed began, and any boundary it crosses takes effect only
// after the batch is fully absorbed.
func (r *Ring[E]) Feed(n uint64, fn func(current E)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn(r.gens[0])
	r.edges += n
	r.ver.Add(1)
	if r.every > 0 && r.edges >= r.every {
		r.rotateLocked()
	}
}

// Version returns the ring's state-change counter without taking the lock.
// Any Feed, rotation, or Adopt advances it, so a published snapshot stamped
// with the version it was taken at is current exactly while Version still
// reports that stamp.
func (r *Ring[E]) Version() uint64 { return r.ver.Load() }

// ViewStamped runs fn on the live generations (newest first) plus the epoch
// bookkeeping and the current version, all under the ring lock — the hook a
// snapshot builder uses to freeze a consistent (generations, epoch, edges)
// triple stamped with the version to publish it under. The same caveats as
// View apply: fn must not retain the slice or call back into the ring.
func (r *Ring[E]) ViewStamped(fn func(gens []E, epoch, edges, ver uint64)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn(r.gens, r.epoch, r.edges, r.ver.Load())
}

// View runs fn on the live generations, newest first, under the ring lock.
// fn must not retain the slice or rotate/feed the ring (deadlock).
func (r *Ring[E]) View(fn func(live []E)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn(r.gens)
}

// Snapshot returns a copy of the live generation headers (newest first), the
// current epoch, and the edges the current epoch has absorbed. The
// generations themselves are shared, not cloned.
func (r *Ring[E]) Snapshot() (gens []E, epoch, edges uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]E(nil), r.gens...), r.epoch, r.edges
}

// Rotate forces an epoch boundary: the oldest of k live generations is
// discarded, every survivor ages one slot, and a fresh generation starts
// receiving edges. It returns the new epoch number.
func (r *Ring[E]) Rotate() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rotateLocked()
	return r.epoch
}

func (r *Ring[E]) rotateLocked() {
	g := mustBuild(r.build)
	if len(r.gens) < r.k {
		var zero E
		r.gens = append(r.gens, zero)
	} else if r.onRetire != nil {
		r.onRetire(r.gens[len(r.gens)-1])
	}
	copy(r.gens[1:], r.gens)
	r.gens[0] = g
	r.epoch++
	r.edges = 0
	r.ver.Add(1)
}

// Adopt replaces the ring's live generations (newest first), epoch, and
// edges-in-epoch counter — the restore path of checkpointing, cloning, and
// merging. It enforces the ring invariant live == min(epoch+1, k) and
// rejects nil generations; on error the ring is unchanged.
func (r *Ring[E]) Adopt(gens []E, epoch, edges uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.adoptLocked(gens, epoch, edges)
}

func (r *Ring[E]) adoptLocked(gens []E, epoch, edges uint64) error {
	want := uint64(r.k)
	if epoch < uint64(r.k)-1 {
		want = epoch + 1
	}
	if uint64(len(gens)) != want {
		return fmt.Errorf("window: %d live generations inconsistent with epoch %d of a %d-generation ring (want %d)",
			len(gens), epoch, r.k, want)
	}
	for _, g := range gens {
		if any(g) == nil {
			return errors.New("window: Adopt of a nil generation")
		}
	}
	r.gens = append(r.gens[:0:0], gens...)
	r.epoch = epoch
	r.edges = edges
	r.ver.Add(1)
	return nil
}
