package stream

// Shard partitioning. A sharded estimator routes every edge of a user to
// one shard (all of a user's state lives there), so any batched path —
// Sharded.ObserveBatch, the server's ingest pipeline, a cluster router —
// needs the same primitive: split a batch of edges into shard-pure
// sub-batches while preserving, within each shard, the batch's edge order
// (that order-preservation is what keeps batched ingestion bit-identical
// to the per-edge loop). Partitioner is that primitive, hoisted here so it
// is done ONCE per batch, as early as decode time: the server partitions a
// decoded wire batch on the handler goroutine and hands each shard
// executor an already-pure sub-batch, and Sharded.ObserveBatch uses the
// same implementation for the single-call absorb path.
//
// The split is a stable counting sort in two passes over the batch. The
// first records each edge's shard id, hashing once per maximal run of
// consecutive same-user edges (real streams are bursty: a user's edges
// arrive in clumps) and counting the edges per shard. The second scatters
// each edge to its shard's next free position in the grouped buffer. Both
// passes are straight loops over the batch with no per-run call or record,
// which suits shuffled traffic, where most runs are a single edge, as well
// as bursty traffic.

import (
	"fmt"
	"math"
	"sync"
)

// Partitioner splits edge batches into shard-pure sub-batches for a fixed
// shard count and routing function. It is safe for concurrent use: each
// Split draws its scratch state from an internal pool, so concurrent
// batches neither allocate per call (steady state) nor share buffers.
type Partitioner struct {
	shards int
	index  func(user uint64) int
	pool   sync.Pool // *Partitioned
}

// NewPartitioner returns a partitioner over shards sub-streams; index must
// map a user to its shard in [0, shards) and be pure (same user, same
// shard — determinism of every downstream sub-stream depends on it). It
// panics if shards <= 0, shards exceeds the 32-bit range of the per-edge
// shard ids, or index is nil.
func NewPartitioner(shards int, index func(user uint64) int) *Partitioner {
	if shards <= 0 || uint64(shards) > math.MaxUint32 {
		panic("stream: NewPartitioner requires 0 < shards <= 2^32-1")
	}
	if index == nil {
		panic("stream: NewPartitioner requires an index function")
	}
	p := &Partitioner{shards: shards, index: index}
	p.pool.New = func() any {
		return &Partitioned{p: p, offsets: make([]int, shards+1)}
	}
	return p
}

// NumShards returns the fixed shard count.
func (p *Partitioner) NumShards() int { return p.shards }

// Partitioned is one batch split into shard-pure sub-batches. Sub-batches
// are subslices of a single grouped buffer owned by the Partitioned, so
// the source batch is free for reuse (or, for a zero-copy wire decode, its
// request body free for release) as soon as Split returns — except in the
// one-shard case, where grouping is the identity and the sub-batch aliases
// the source batch to skip the copy.
//
// Call Release when every sub-batch has been absorbed to return the
// buffers to the pool; using any sub-batch after Release is a data race
// with the pool's next Split.
type Partitioned struct {
	p       *Partitioner
	grouped []Edge
	// offsets[t] is the end of shard t's sub-batch in grouped (shard t
	// starts where shard t-1 ends; shard 0 at 0).
	offsets []int
	ids     []uint32 // scratch: each edge's shard id, in batch order
	aliased bool     // grouped aliases the source batch (one-shard identity)
}

// Split partitions edges by shard. The grouping is a stable counting sort:
// within each shard's sub-batch the edges keep their batch order, so
// feeding every sub-batch (in any shard order, from any goroutine) yields
// per-shard sub-streams bit-identical to routing the batch edge by edge.
func (p *Partitioner) Split(edges []Edge) *Partitioned {
	b := p.pool.Get().(*Partitioned)
	n := len(edges)
	if p.shards == 1 {
		b.aliased = true
		b.grouped = edges
		b.offsets[0] = n
		return b
	}
	offsets := b.offsets
	clear(offsets)
	if cap(b.ids) < n {
		b.ids = make([]uint32, n)
	}
	ids := b.ids[:n]
	for i := 0; i < n; {
		user := edges[i].User
		t := p.index(user)
		j := i
		for ; j < n && edges[j].User == user; j++ {
			ids[j] = uint32(t)
		}
		offsets[t+1] += j - i
		i = j
	}
	// Prefix sums turn per-shard counts (offsets[t+1]) into start offsets
	// (offsets[t]); the scatter then advances them to end offsets, which is
	// exactly the layout Shard reads.
	for t := 1; t < len(offsets); t++ {
		offsets[t] += offsets[t-1]
	}
	if cap(b.grouped) < n {
		b.grouped = make([]Edge, n)
	}
	grouped := b.grouped[:n]
	for i, e := range edges {
		t := ids[i]
		grouped[offsets[t]] = e
		offsets[t]++
	}
	b.grouped = grouped
	return b
}

// Shard returns shard t's sub-batch (possibly empty): the batch's edges
// routed to t, in batch order. It panics on a shard index the partitioner
// was not built for.
func (b *Partitioned) Shard(t int) []Edge {
	if t < 0 || t >= b.p.shards {
		panic(fmt.Sprintf("stream: shard %d out of range [0,%d)", t, b.p.shards))
	}
	lo := 0
	if t > 0 {
		lo = b.offsets[t-1]
	}
	return b.grouped[lo:b.offsets[t]]
}

// Len returns the total edge count across all sub-batches.
func (b *Partitioned) Len() int { return b.offsets[b.p.shards-1] }

// NumShards returns the partitioner's shard count.
func (b *Partitioned) NumShards() int { return b.p.shards }

// Release returns the split's buffers to the partitioner's pool. The
// caller must be done with every sub-batch.
func (b *Partitioned) Release() {
	// Drop the one-shard alias before pooling: it would keep the source
	// batch reachable from the pool.
	if b.aliased {
		b.aliased = false
		b.grouped = nil
	}
	b.p.pool.Put(b)
}
