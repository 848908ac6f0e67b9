package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/hashing"
)

// BenchmarkKernelDaemonGeometry measures the batch kernels at cardserved's
// serving geometry, so that a kernel regression reproduces without the
// end-to-end benchmark: 8 shards of 2^23 bits each (FreeRS: 2^23/5
// registers), together 8 MiB, several times a core's L2 cache. The input is
// the flickr-shaped dataset the ingest benchmark sends, repeated in passes
// whose items are moved into disjoint ranges (so every pass is new pairs),
// cut into 2048-edge frames and split by shard before the clock starts. One
// op absorbs the whole stream into fresh shards, frame by frame, with the
// shards divided among 1 or 2 goroutines as the daemon's shard executors
// divide them; ns/edge is the op time over the edges absorbed.
func BenchmarkKernelDaemonGeometry(b *testing.B) {
	const (
		shards    = 8
		shardBits = 1 << 23
		frame     = 2048
		passes    = 3
		passShift = 40 // datagen items stay below 2^25
	)
	cfg, err := datagen.PaperConfig("flickr", 0.1, 1)
	if err != nil {
		b.Fatal(err)
	}
	base := datagen.Generate(cfg).Edges
	// frames[t] holds shard t's sub-batch of every frame of one pass, in
	// order; the pass offset is added to the items in place between passes.
	var frames [shards][][]Edge
	for lo := 0; lo < len(base); lo += frame {
		var sub [shards][]Edge
		for _, e := range base[lo:min(lo+frame, len(base))] {
			t := hashing.UniformIndex(hashing.HashU64(e.User, 1), shards)
			sub[t] = append(sub[t], e)
		}
		for t := range sub {
			frames[t] = append(frames[t], sub[t])
		}
	}
	shiftItems := func(d uint64) {
		for _, fs := range frames {
			for _, f := range fs {
				for i := range f {
					f[i].Item += d
				}
			}
		}
	}
	sketches := []struct {
		name string
		mk   func(seed uint64) func([]Edge)
	}{
		{"FreeRS", func(seed uint64) func([]Edge) {
			return NewFreeRS(shardBits/DefaultRegisterWidth, seed).ObserveBatch
		}},
		{"FreeBS", func(seed uint64) func([]Edge) { return NewFreeBS(shardBits, seed).ObserveBatch }},
	}
	for _, sk := range sketches {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/goroutines=%d", sk.name, workers), func(b *testing.B) {
				for n := 0; n < b.N; n++ {
					b.StopTimer()
					var absorb [shards]func([]Edge)
					for t := range absorb {
						absorb[t] = sk.mk(uint64(t) + 1)
					}
					for p := 0; p < passes; p++ {
						if p > 0 {
							b.StopTimer()
							shiftItems(1 << passShift)
						}
						b.StartTimer()
						var wg sync.WaitGroup
						for w := 0; w < workers; w++ {
							wg.Add(1)
							go func(w int) {
								defer wg.Done()
								for f := range frames[0] {
									for t := w; t < shards; t += workers {
										absorb[t](frames[t][f])
									}
								}
							}(w)
						}
						wg.Wait()
					}
					b.StopTimer()
					back := uint64(passes-1) << passShift
					shiftItems(-back)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*passes*len(base)), "ns/edge")
			})
		}
	}
}
