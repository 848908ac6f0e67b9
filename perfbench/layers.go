package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"

	streamcard "repro"
	"repro/internal/bitarray"
	"repro/internal/core"
	"repro/internal/hashing"
	"repro/internal/regarray"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/usertab"
	"repro/internal/wal"
)

// Layer suite geometry: the daemon's sketch (2^26 bits over 8 shards,
// 4 generations), one kernel structure per shard so the working set is
// the daemon's.
const (
	layerShards  = 8
	layerBits    = 1 << 26
	perShardBits = layerBits / layerShards
	walBatches   = 1000 // ≥1000 commits, so commit_p99 is supported
)

// layerSuite replays the workload's first edges through each module's
// public functions in-process, one span per call, and sets the per-layer
// metrics from the spans. Nothing inside the program is instrumented.
func (r *run) layerSuite(tr *tracer) error {
	keys := r.keys
	nb := (len(keys) + frameEdges - 1) / frameEdges
	batch := func(b int) []stream.Edge { return keys[b*frameEdges : min(len(keys), (b+1)*frameEdges)] }

	// Encoded forms of every batch, built before any span opens.
	var framed bytes.Buffer
	framed.WriteString(stream.TCPMagic)
	texts := make([][]byte, nb)
	for b := 0; b < nb; b++ {
		payload := stream.AppendWire(nil, batch(b))
		framed.Write(stream.AppendFrameHeader(nil, uint64(b+1), len(payload)))
		framed.Write(payload)
		var tb bytes.Buffer
		if err := stream.WriteText(&tb, batch(b)); err != nil {
			return err
		}
		texts[b] = tb.Bytes()
	}

	// Ingest path: scan, decode (both wire formats), partition, absorb.
	sh := newStack(r.method)
	part := stream.NewPartitioner(layerShards, sh.ShardIndex)
	rd := bytes.NewReader(framed.Bytes()[len(stream.TCPMagic):])
	sc := stream.NewFrameScanner(rd, 0)
	var buf []byte
	for b := 0; b < nb; b++ {
		id := uint64(b)
		root := tr.begin(id, -1, "ingest.batch")
		s := tr.begin(id, root, "stream.FrameScanner.Next")
		_, payload, err := sc.Next(buf)
		tr.end(s, len(batch(b)))
		if err != nil {
			return fmt.Errorf("frame scan: %w", err)
		}
		buf = payload
		s = tr.begin(id, root, "stream.DecodeWire")
		edges, err := stream.DecodeWire(payload)
		tr.end(s, len(edges))
		if err != nil {
			return err
		}
		s = tr.begin(id, root, "stream.ParseTextBatch")
		parsed, err := stream.ParseTextBatch(bytes.NewReader(texts[b]))
		tr.end(s, len(parsed))
		if err != nil || len(parsed) != len(edges) {
			return fmt.Errorf("text parse: %d edges, %v", len(parsed), err)
		}
		s = tr.begin(id, root, "stream.Partitioner.Split")
		p := part.Split(edges)
		tr.end(s, len(edges))
		for t := 0; t < layerShards; t++ {
			if sub := p.Shard(t); len(sub) > 0 {
				s = tr.begin(id, root, "streamcard.Sharded.ObserveShardBatch")
				sh.ObserveShardBatch(t, sub)
				tr.end(s, len(sub))
			}
		}
		p.Release()
		tr.end(root, len(edges))
	}

	r.kernels(tr, part)
	r.readPath(tr, sh, part)
	if err := r.walLayer(tr); err != nil {
		return err
	}
	if err := r.serverLayer(tr); err != nil {
		return err
	}

	st := tr.stats()
	perN := func(name string) float64 {
		if s := st[name]; s != nil && s.n > 0 {
			return float64(s.selfNs) / float64(s.n)
		}
		return 0
	}
	perCall := func(name string) float64 {
		if s := st[name]; s != nil && s.calls > 0 {
			return float64(s.selfNs) / float64(s.calls)
		}
		return 0
	}
	r.setLayer("stream.decode_cwb1_ns_per_edge", "ns", perN("stream.DecodeWire"))
	r.setLayer("stream.partition_ns_per_edge", "ns", perN("stream.Partitioner.Split"))
	r.setLayer("stream.frame_scan_ns_per_frame", "ns", perCall("stream.FrameScanner.Next"))
	r.setLayer("stream.parse_text_ns_per_edge", "ns", perN("stream.ParseTextBatch"))
	r.setLayer("hashing.ns_per_edge", "ns", perN("hashing.pair_hashes"))
	r.setLayer("regarray.update_ns", "ns", perN("regarray.Array.UpdateMax"))
	r.setLayer("bitarray.set_ns", "ns", perN("bitarray.BitArray.Set"))
	r.setLayer("usertab.writeback_ns_per_run", "ns", perN("usertab.Table.Ref"))
	r.setLayer("core.freers_absorb_ns_per_edge", "ns", perN("core.FreeRS.ObserveBatch"))
	r.setLayer("core.freebs_absorb_ns_per_edge", "ns", perN("core.FreeBS.ObserveBatch"))
	r.setLayer("streamcard.observe_shard_ns_per_edge", "ns", perN("streamcard.Sharded.ObserveShardBatch"))
	r.setLayer("streamcard.snapshot_ns", "ns", median(st["streamcard.Sharded.Snapshot"].durs))
	r.setLayer("streamcard.view_estimate_ns", "ns", perN("streamcard.ShardedView.Estimate"))
	r.setLayer("streamcard.topk_cold_ms", "ms", median(st["streamcard.TopK.cold"].durs)/1e6)
	r.setLayer("streamcard.topk_cached_ms", "ms", median(st["streamcard.TopK.cached"].durs)/1e6)
	r.setLayer("streamcard.rotate_ms", "ms", median(st["streamcard.Sharded.Rotate"].durs)/1e6)
	r.setLayer("wal.append_us_per_batch", "us", perCall("wal.WAL.AppendBatch")/1e3)
	commits := st["wal.WAL.Commit"].durs
	p50, _ := percentile(commits, 0.5)
	p99, _ := percentile(commits, 0.99)
	r.setLayer("wal.commit_p50_us", "us", p50/1e3)
	r.setLayer("wal.commit_p99_us", "us", p99/1e3)
	r.setLayer("server.checkpoint_ms", "ms", median(st["server.Server.Checkpoint"].durs)/1e6)
	r.setLayer("server.restore_ms", "ms", median(st["server.New"].durs)/1e6)

	// Coverage: the layer self time an edge spends on this workload's
	// ingest path, as a share of the daemon's end-to-end wall time per
	// edge. Above 100% means the layers overlap across CPUs; far below,
	// that the time goes outside the measured layers (or, on a paced
	// workload, that the daemon idles).
	var pathNs float64
	for _, name := range r.path {
		pathNs += perN(name)
	}
	r.setLayer("trace.coverage_pct", "%", 100*ratio(pathNs, r.edgeNs))
	return nil
}

// newStack builds the daemon's estimator stack: Sharded(Windowed(method)).
func newStack(method string) *streamcard.Sharded {
	return streamcard.NewSharded(layerShards, func(int) streamcard.Estimator {
		return streamcard.NewWindowed(func() streamcard.Estimator {
			if method == "freebs" {
				return streamcard.NewFreeBS(perShardBits, streamcard.WithSeed(1))
			}
			return streamcard.NewFreeRS(perShardBits, streamcard.WithSeed(1))
		}, streamcard.WithGenerations(4))
	})
}

// kernels times the sketch kernels on the workload's keys, routed to one
// structure per shard as the daemon routes them, so the working set and
// its cache misses match the daemon's.
func (r *run) kernels(tr *tracer, part *stream.Partitioner) {
	regs := perShardBits / core.DefaultRegisterWidth
	seedIdx, seedRank := hashing.Mix64(11), hashing.Mix64(12)
	type shardK struct {
		ra *regarray.Array
		ba *bitarray.BitArray
		ut *usertab.Table
		rs *core.FreeRS
		bs *core.FreeBS
	}
	ks := make([]shardK, layerShards)
	for t := range ks {
		ks[t] = shardK{regarray.New(regs, core.DefaultRegisterWidth), bitarray.New(perShardBits), usertab.New(),
			core.NewFreeRS(regs, 1), core.NewFreeBS(perShardBits, 1)}
	}
	maxVal := ks[0].ra.MaxValue()
	idx := make([]int, frameEdges)
	rank := make([]uint8, frameEdges)
	raw := make([]uint64, frameEdges)
	bidx := make([]int, frameEdges)
	var sink uint64
	keys := r.keys
	for b := 0; b*frameEdges < len(keys); b++ {
		id := uint64(b)
		p := part.Split(keys[b*frameEdges : min(len(keys), (b+1)*frameEdges)])
		for t := 0; t < layerShards; t++ {
			sub := p.Shard(t)
			if len(sub) == 0 {
				continue
			}
			k := &ks[t]
			s := tr.begin(id, -1, "hashing.pair_hashes")
			i := 0
			stream.ForEachRun(sub, func(user uint64, run []stream.Edge) {
				prefix := hashing.HashPairPrefix(user)
				for _, e := range run {
					raw[i] = hashing.HashPairFinish(prefix, e.Item, seedIdx)
					idx[i] = hashing.UniformIndex(raw[i], regs)
					rank[i] = hashing.Rho(hashing.HashPairFinish(prefix, e.Item, seedRank), maxVal)
					i++
				}
			})
			tr.end(s, len(sub))
			// FreeBS indexes its bits with the same pair hash.
			for j := range sub {
				bidx[j] = hashing.UniformIndex(raw[j], perShardBits)
			}
			s = tr.begin(id, -1, "regarray.Array.UpdateMax")
			for j := range sub {
				if _, changed := k.ra.UpdateMax(idx[j], rank[j]); changed {
					sink++
				}
			}
			tr.end(s, len(sub))
			s = tr.begin(id, -1, "bitarray.BitArray.Set")
			for j := range sub {
				if k.ba.Set(bidx[j]) {
					sink++
				}
			}
			tr.end(s, len(sub))
			runs := 0
			s = tr.begin(id, -1, "usertab.Table.Ref")
			stream.ForEachRun(sub, func(user uint64, run []stream.Edge) {
				runs++
				if ref := k.ut.Ref(user); ref != nil {
					*ref += float64(len(run))
				} else {
					k.ut.Add(user, float64(len(run)))
				}
			})
			tr.end(s, runs)
			s = tr.begin(id, -1, "core.FreeRS.ObserveBatch")
			k.rs.ObserveBatch(sub)
			tr.end(s, len(sub))
			s = tr.begin(id, -1, "core.FreeBS.ObserveBatch")
			k.bs.ObserveBatch(sub)
			tr.end(s, len(sub))
		}
		p.Release()
	}
	keepU = sink
}

// keepU and keepF hold results of timed calls so they cannot be optimised
// away.
var (
	keepU uint64
	keepF float64
)

// readPath times the streamcard read path on the replica stack: fresh
// snapshots, point estimates, top-k on a new view and again on the same
// view, and rotation.
func (r *run) readPath(tr *tracer, sh *streamcard.Sharded, part *stream.Partitioner) {
	keys := r.keys
	small := func(i int) []stream.Edge { // a 64-edge write that forces a new view
		lo := (i * 64) % max(1, len(keys)-64)
		return keys[lo:min(len(keys), lo+64)]
	}
	write := func(i int) {
		p := part.Split(small(i))
		for t := 0; t < layerShards; t++ {
			if sub := p.Shard(t); len(sub) > 0 {
				sh.ObserveShardBatch(t, sub)
			}
		}
		p.Release()
	}
	for i := 0; i < 200; i++ {
		write(i)
		s := tr.begin(uint64(i), -1, "streamcard.Sharded.Snapshot")
		sh.Snapshot()
		tr.end(s, 1)
	}
	v := sh.Snapshot()
	var sum float64
	for b := 0; b*1000 < len(keys); b++ {
		chunk := keys[b*1000 : min(len(keys), (b+1)*1000)]
		s := tr.begin(uint64(b), -1, "streamcard.ShardedView.Estimate")
		for _, e := range chunk {
			sum += v.Estimate(e.User)
		}
		tr.end(s, len(chunk))
	}
	for i := 0; i < 10; i++ {
		write(1000 + i)
		id := uint64(i)
		root := tr.begin(id, -1, "query.topk")
		s := tr.begin(id, root, "streamcard.Sharded.Snapshot")
		view := sh.Snapshot()
		tr.end(s, 1)
		s = tr.begin(id, root, "streamcard.TopK.cold")
		streamcard.TopK(view, topkK)
		tr.end(s, 1)
		s = tr.begin(id, root, "streamcard.TopK.cached")
		streamcard.TopK(view, topkK)
		tr.end(s, 1)
		tr.end(root, 1)
	}
	for i := 0; i < 3; i++ {
		write(2000 + i)
		s := tr.begin(uint64(i), -1, "streamcard.Sharded.Rotate")
		sh.Rotate()
		tr.end(s, 1)
	}
	keepF = sum
}

// walLayer times WAL appends and group commits under the always policy on
// the workload's batches, then replay of the written log.
func (r *run) walLayer(tr *tracer) error {
	dir := filepath.Join(r.work, "layers-wal")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var fsyncs, bytesN int
	opts := wal.Options{Dir: dir, Fingerprint: []byte("perfbench"), Policy: wal.SyncAlways,
		Metrics: wal.Metrics{
			OnAppend: func(_, b int) { bytesN += b },
			OnFsync:  func(float64) { fsyncs++ },
		}}
	w, err := wal.Open(opts)
	if err != nil {
		return err
	}
	keys := r.keys
	edges := 0
	for b := 0; b < walBatches; b++ {
		lo := (b * frameEdges) % max(1, len(keys)-frameEdges)
		batch := keys[lo:min(len(keys), lo+frameEdges)]
		id := uint64(b)
		root := tr.begin(id, -1, "wal.batch")
		s := tr.begin(id, root, "wal.WAL.AppendBatch")
		seq, err := w.AppendBatch(batch)
		tr.end(s, len(batch))
		if err != nil {
			w.Close()
			return err
		}
		s = tr.begin(id, root, "wal.WAL.Commit")
		err = w.Commit(seq)
		tr.end(s, len(batch))
		tr.end(root, len(batch))
		if err != nil {
			w.Close()
			return err
		}
		edges += len(batch)
	}
	if err := w.Close(); err != nil {
		return err
	}
	r.setLayer("wal.fsyncs_per_medge", "count", 1e6*float64(fsyncs)/float64(edges))
	r.setLayer("wal.bytes_per_edge", "B", float64(bytesN)/float64(edges))

	opts.Metrics = wal.Metrics{}
	w, err = wal.Open(opts)
	if err != nil {
		return err
	}
	replayed := 0
	s := tr.begin(0, -1, "wal.WAL.Replay")
	err = w.Replay(0, func(rec wal.Record) error { replayed += len(rec.Edges); return nil })
	tr.end(s, replayed)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	sp := tr.spans[s]
	r.setLayer("wal.replay_edges_per_s", "1/s", float64(replayed)/(float64(sp.End-sp.Start)/1e9))
	return nil
}

// serverLayer times Server.Checkpoint on a server holding the workload's
// keys, then server.New restoring that spool.
func (r *run) serverLayer(tr *tracer) error {
	dir := filepath.Join(r.work, "layers-spool")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := server.Config{Method: r.method, MemoryBits: layerBits, Shards: layerShards, Generations: 4, SpoolDir: dir}
	s, err := server.New(cfg)
	if err != nil {
		return err
	}
	h := s.Handler()
	for lo := 0; lo < len(r.keys); lo += 8192 {
		body := stream.AppendWire(nil, r.keys[lo:min(len(r.keys), lo+8192)])
		req := httptest.NewRequest("POST", "/ingest?wait=1", bytes.NewReader(body))
		req.Header.Set("Content-Type", stream.WireContentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			s.Close()
			return fmt.Errorf("in-process ingest: %d %s", rec.Code, rec.Body.String())
		}
	}
	for i := 0; i < 3; i++ {
		sp := tr.begin(uint64(i), -1, "server.Server.Checkpoint")
		err := s.Checkpoint()
		tr.end(sp, 1)
		if err != nil {
			s.Close()
			return err
		}
	}
	if err := s.Close(); err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		sp := tr.begin(uint64(i), -1, "server.New")
		s, err := server.New(cfg)
		tr.end(sp, 1)
		if err != nil {
			return err
		}
		if !s.Restored() {
			s.Close()
			return fmt.Errorf("server.New did not restore the spool in %s", dir)
		}
		if err := s.Close(); err != nil {
			return err
		}
	}
	return nil
}
