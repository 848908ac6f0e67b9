package stream

import (
	"fmt"
	"testing"
)

// refSplit is the obviously correct partitioner: route edge by edge,
// appending in batch order.
func refSplit(edges []Edge, shards int, index func(uint64) int) [][]Edge {
	out := make([][]Edge, shards)
	for _, e := range edges {
		t := index(e.User)
		out[t] = append(out[t], e)
	}
	return out
}

func burstyEdges(n int, users uint64, seed uint64) []Edge {
	// Runs of 1..8 edges per user, like real clumpy streams.
	edges := make([]Edge, 0, n)
	state := seed
	next := func() uint64 { state = state*6364136223846793005 + 1442695040888963407; return state }
	for len(edges) < n {
		u := next()%users + 1
		run := int(next()%8) + 1
		for r := 0; r < run && len(edges) < n; r++ {
			edges = append(edges, Edge{User: u, Item: next()})
		}
	}
	return edges
}

// longRunEdges generates n edges in runs of 1..maxRun edges per user, so
// single runs can span most of a batch.
func longRunEdges(n int, users uint64, maxRun int, seed uint64) []Edge {
	edges := make([]Edge, 0, n)
	state := seed
	next := func() uint64 { state = state*6364136223846793005 + 1442695040888963407; return state >> 11 }
	for len(edges) < n {
		u := next()%users + 1
		run := int(next()%uint64(maxRun)) + 1
		for r := 0; r < run && len(edges) < n; r++ {
			edges = append(edges, Edge{User: u, Item: next()})
		}
	}
	return edges
}

// checkSplit asserts that b holds, for every shard, exactly the edges the
// per-edge router would put there, in batch order.
func checkSplit(t *testing.T, name string, b *Partitioned, edges []Edge, shards int, index func(uint64) int) {
	t.Helper()
	want := refSplit(edges, shards, index)
	if b.NumShards() != shards {
		t.Fatalf("%s: NumShards %d, want %d", name, b.NumShards(), shards)
	}
	if b.Len() != len(edges) {
		t.Fatalf("%s: Len %d, want %d", name, b.Len(), len(edges))
	}
	for s := 0; s < shards; s++ {
		got := b.Shard(s)
		if len(got) != len(want[s]) {
			t.Fatalf("%s shard %d: %d edges, want %d", name, s, len(got), len(want[s]))
		}
		for i := range got {
			if got[i] != want[s][i] {
				t.Fatalf("%s shard %d edge %d: %v, want %v", name, s, i, got[i], want[s][i])
			}
		}
	}
}

// TestPartitionerMatchesEdgeByEdgeRouting: the split must produce, for
// every shard, exactly the edges the per-edge router would, in exactly the
// batch order — that order is what downstream bit-identical determinism
// rests on. It covers shard counts past 255 (shard ids are not bytes),
// shards left empty (a router that skips most shards, and more shards than
// users), runs longer than a whole batch, and one pooled Partitioned reused
// after Release for batches that grow and shrink.
func TestPartitionerMatchesEdgeByEdgeRouting(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4, 7, 8, 16, 300} {
		routers := map[string]func(uint64) int{
			"mod": func(u uint64) int { return int(u % uint64(shards)) },
			// Only every third shard receives edges.
			"sparse": func(u uint64) int { return int(u%uint64((shards+2)/3)) * 3 % shards },
		}
		for rname, index := range routers {
			p := NewPartitioner(shards, index)
			inputs := []struct {
				name  string
				edges []Edge
			}{
				{"empty", nil},
				{"one", burstyEdges(1, 97, 1)},
				{"short", burstyEdges(7, 97, 2)},
				{"bursty", burstyEdges(4096, 97, 3)},
				{"fewusers", burstyEdges(1000, 5, 4)},
				{"manyusers", burstyEdges(3000, 100000, 5)},
				{"longruns", longRunEdges(5000, 13, 3000, 6)},
				{"onerun", longRunEdges(2048, 1, 4096, 7)},
				{"bursty-again", burstyEdges(100, 97, 8)},
			}
			for _, in := range inputs {
				name := fmt.Sprintf("shards=%d/%s/%s", shards, rname, in.name)
				b := p.Split(in.edges)
				checkSplit(t, name, b, in.edges, shards, index)
				b.Release()
			}
		}
	}
}

// TestPartitionerSingleShardAliases: with one shard grouping is the
// identity, and the sub-batch must alias the input (no copy) — the server
// keeps a zero-copy wire decode zero-copy all the way to the executor.
func TestPartitionerSingleShardAliases(t *testing.T) {
	p := NewPartitioner(1, func(uint64) int { return 0 })
	edges := burstyEdges(100, 10, 1)
	b := p.Split(edges)
	got := b.Shard(0)
	if len(got) != len(edges) || &got[0] != &edges[0] {
		t.Fatal("one-shard split must alias the source batch")
	}
	b.Release()
	// The pool must not hand the aliased slice to the next Split.
	b2 := p.Split(nil)
	if b2.Len() != 0 {
		t.Fatalf("empty split reports %d edges", b2.Len())
	}
	b2.Release()
}

// TestPartitionerSourceFreeAfterSplit: with >1 shard the sub-batches are
// copies, so mutating (or reusing) the source after Split must not change
// them — that property is what lets the server release a wire request body
// the moment Split returns.
func TestPartitionerSourceFreeAfterSplit(t *testing.T) {
	p := NewPartitioner(4, func(u uint64) int { return int(u % 4) })
	edges := burstyEdges(500, 31, 9)
	index := func(u uint64) int { return int(u % 4) }
	want := refSplit(edges, 4, index)
	b := p.Split(edges)
	for i := range edges {
		edges[i] = Edge{User: ^uint64(0), Item: ^uint64(0)} // scribble
	}
	for s := 0; s < 4; s++ {
		got := b.Shard(s)
		for i := range got {
			if got[i] != want[s][i] {
				t.Fatalf("shard %d edge %d changed when the source was scribbled", s, i)
			}
		}
	}
	b.Release()
}

// TestPartitionerReuse: Release/Split cycles must keep producing correct
// output (pooled scratch fully reset between batches).
func TestPartitionerReuse(t *testing.T) {
	shards := 5
	index := func(u uint64) int { return int(u % uint64(shards)) }
	p := NewPartitioner(shards, index)
	for round := 0; round < 50; round++ {
		edges := burstyEdges(10+round*37, 11, uint64(round))
		want := refSplit(edges, shards, index)
		b := p.Split(edges)
		for s := 0; s < shards; s++ {
			got := b.Shard(s)
			if len(got) != len(want[s]) {
				t.Fatalf("round %d shard %d: %d edges, want %d", round, s, len(got), len(want[s]))
			}
			for i := range got {
				if got[i] != want[s][i] {
					t.Fatalf("round %d shard %d edge %d mismatch", round, s, i)
				}
			}
		}
		b.Release()
	}
}

func TestPartitionerPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero shards", func() { NewPartitioner(0, func(uint64) int { return 0 }) })
	mustPanic("nil index", func() { NewPartitioner(2, nil) })
	p := NewPartitioner(2, func(u uint64) int { return int(u % 2) })
	b := p.Split([]Edge{{User: 1, Item: 1}})
	defer b.Release()
	mustPanic("shard out of range", func() { b.Shard(2) })
	mustPanic("negative shard", func() { b.Shard(-1) })
}
