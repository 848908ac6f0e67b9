package core

import (
	"repro/internal/hashing"
	"repro/internal/stream"
	"repro/internal/usertab"
)

// Edge is the user-item pair type shared by all batch ingestion paths. It is
// an alias of stream.Edge so workload generators, the stream codec, and the
// sketches exchange slices without conversion or copying.
type Edge = stream.Edge

// kernelBlock is the number of edges the batch kernels hash and pre-read
// before applying any of them. It bounds the kernels' stack arrays; 64
// edges issue enough independent loads to keep a core's outstanding cache
// misses busy (blocks of 16 to 256 measured alike).
const kernelBlock = 64

// ObserveBatch processes edges exactly as a sequence of Observe calls would —
// per-user estimates, totals, the shared array and the estimate table's
// layout end bit-identical — while taking the shared array's cache misses
// in parallel instead of one per edge. The batch is processed in blocks of
// kernelBlock edges, each in two passes:
//
//   - Pass 1 hashes every edge of the block to its bit index, computing the
//     user half of the pair hash once per run of consecutive same-user
//     edges (hashing.HashPairPrefix), and then reads the block's bits in a
//     loop of its own. The reads are independent of one another and the
//     loop is a few instructions long, so many cache misses are in flight
//     together instead of each waiting behind the previous edge's hash and
//     compare-and-branch.
//   - Pass 2 applies the block's edges in their original order, exactly as
//     Observe does. An edge whose bit pass 1 found set is skipped without a
//     second look; any other edge goes through BitArray.Set, which re-reads
//     the bit, now in cache.
//
// The pass-1 reads are safe because within one ObserveBatch call bits only
// go from 0 to 1: a bit pass 1 saw set is still set when pass 2 reaches its
// edge, whatever the block's earlier edges wrote. A bit pass 1 saw clear is
// decided again by Set. So every edge flips exactly the bit it flips in the
// per-edge loop, in the same order, and sees the same zero count m0. Pass 1
// may read words a Snapshot still shares; the first write of pass 2
// detaches onto a copy with the same contents, and the snapshot is never
// written.
//
// The order matters, which is why the edges are not sorted by bit index to
// improve locality: each flip's credit M/m0 depends on the zero count at
// that moment.
//
// A user run's credits accumulate in a register and are written back to the
// estimate table once, when the run ends. The user's table cell is looked
// up on the run's first credit, not at its start: once the array fills, most
// runs credit nothing and never touch the table. Cells are inserted in the
// same order as by Observe, so the table's layout is the same too.
func (f *FreeBS) ObserveBatch(edges []Edge) {
	if len(edges) == 0 {
		return
	}
	f.edges += uint64(len(edges))
	bits := f.bits
	size := bits.Size()
	var (
		idx [kernelBlock]int
		set [kernelBlock]bool
	)
	hashed, prefix := edges[0].User, hashing.HashPairPrefix(edges[0].User)
	run := userRun{est: f.est, user: edges[0].User}
	for len(edges) > 0 {
		blk := edges[:min(kernelBlock, len(edges))]
		edges = edges[len(blk):]
		for k, ed := range blk {
			if ed.User != hashed {
				hashed, prefix = ed.User, hashing.HashPairPrefix(ed.User)
			}
			idx[k] = hashing.UniformIndex(hashing.HashPairFinish(prefix, ed.Item, f.seed), size)
		}
		for k, i := range idx[:len(blk)] {
			set[k] = bits.Get(i)
		}
		for k, ed := range blk {
			if ed.User != run.user {
				run.next(ed.User)
			}
			if set[k] {
				continue
			}
			m0 := bits.ZeroCount()
			if !bits.Set(idx[k]) {
				continue
			}
			q := m0
			if f.postUpdateQ {
				q = m0 - 1
				if q <= 0 {
					q = 1
				}
			}
			inc := float64(size) / float64(q)
			run.credit(inc)
			f.total += inc
		}
	}
	run.flush()
}

// ObserveBatch processes edges exactly as a sequence of Observe calls would;
// see FreeBS.ObserveBatch for the two-pass scheme. Pass 1 computes each
// edge's register index and rank (one user-hash prefix feeds both: they
// differ only in the seed HashPairFinish folds in), then reads the block's
// registers.
// Registers only grow within the call, so an edge whose rank does not
// exceed the register pass 1 read cannot change it and is skipped; any
// other edge goes through Array.UpdateMax, which re-reads the register.
// q_R is computed only for those edges, from the state just before their
// update, instead of a float division on every edge.
func (f *FreeRS) ObserveBatch(edges []Edge) {
	if len(edges) == 0 {
		return
	}
	f.edges += uint64(len(edges))
	regs := f.regs
	size, maxVal := regs.Size(), regs.MaxValue()
	var (
		idx       [kernelBlock]int
		rank, old [kernelBlock]uint8
	)
	hashed, prefix := edges[0].User, hashing.HashPairPrefix(edges[0].User)
	run := userRun{est: f.est, user: edges[0].User}
	for len(edges) > 0 {
		blk := edges[:min(kernelBlock, len(edges))]
		edges = edges[len(blk):]
		for k, ed := range blk {
			if ed.User != hashed {
				hashed, prefix = ed.User, hashing.HashPairPrefix(ed.User)
			}
			idx[k] = hashing.UniformIndex(hashing.HashPairFinish(prefix, ed.Item, f.seedIdx), size)
			rank[k] = hashing.Rho(hashing.HashPairFinish(prefix, ed.Item, f.seedRank), maxVal)
		}
		for k, i := range idx[:len(blk)] {
			old[k] = regs.Get(i)
		}
		for k, ed := range blk {
			if ed.User != run.user {
				run.next(ed.User)
			}
			if rank[k] <= old[k] {
				continue
			}
			q := regs.ChangeProbability() // q_R^(t): state before the edge
			if _, changed := regs.UpdateMax(idx[k], rank[k]); !changed {
				continue
			}
			if f.postUpdateQ {
				q = regs.ChangeProbability()
			}
			inc := 1 / q
			run.credit(inc)
			f.total += inc
		}
	}
	run.flush()
}

// userRun accumulates the credits of one run of consecutive same-user edges
// and writes them to the user's estimate cell when the run ends, so a run
// costs at most one table probe. Between the lookup and the write-back the
// table is not mutated (other users' runs have ended or not begun), so the
// cell pointer usertab.Ref returned stays valid.
type userRun struct {
	est      *usertab.Table
	user     uint64
	cell     *float64 // the user's cell; nil if the user had no entry
	e        float64  // the user's running estimate, once credited
	credited bool
}

// credit adds inc to the run's user, looking the cell up on the first call.
func (r *userRun) credit(inc float64) {
	if !r.credited {
		r.lookup()
	}
	r.e += inc
}

func (r *userRun) lookup() {
	r.credited = true
	r.cell = r.est.Ref(r.user)
	r.e = 0
	if r.cell != nil {
		r.e = *r.cell
	}
}

// next ends the current run and starts one for user.
func (r *userRun) next(user uint64) {
	r.flush()
	r.user, r.credited = user, false
}

// flush writes the run's credits back, if it has any.
func (r *userRun) flush() {
	if r.credited {
		r.store()
	}
}

// store writes the run's total to the user's cell. A user first credited by
// this run is inserted with the whole run total, as the per-edge Adds would
// leave it. It stays out of line so that next, which the kernels call at
// every run boundary, inlines.
//
//go:noinline
func (r *userRun) store() {
	if r.cell != nil {
		*r.cell = r.e
	} else {
		r.est.Add(r.user, r.e)
	}
}
