package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/stream"
)

var workloads = map[string]func(*run) error{
	"ingest_tcp":      runIngestTCP,
	"query_mixed":     runQueryMixed,
	"durable_restart": runDurableRestart,
}

func sketchArgs(method string) []string {
	return []string{"-method", method, "-shards", "8", "-gens", "4", "-mbits", mbits}
}

// runIngestTCP: one CWT1 connection, a fixed window of 2048-edge frames,
// closed loop; FreeRS, no WAL, no queries, no rotation during ingest. The
// sketch kernel, decode, partitioning and the shard executors do the
// work. The run is `cycles` identical cycles, each on a freshly started
// daemon: it ingests its own whole passes of the dataset (all-new pairs,
// so every cycle's truth is the same), and then the sampled users and
// top-k are read back twice, timed, on the idle daemon. Reads come only
// after the ingest, since the first read arms the daemon's per-batch
// snapshot publication. Cycles spread every kind of measurement over the
// whole run rather than packing it into one phase of it.
func runIngestTCP(r *run) error {
	sz := r.sz
	r.method = "freers"
	r.path = []string{"stream.FrameScanner.Next", "stream.DecodeWire", "stream.Partitioner.Split", "streamcard.Sharded.ObserveShardBatch"}
	src, err := newSource("flickr", sz.ingestScale, r.seed, int(r.seconds*sz.ingestRate)/cycles)
	if err != nil {
		return err
	}
	seg := src.len() // edges per cycle: whole passes; the run sends `cycles` such segments
	src.passes *= cycles
	var tr truth
	tr.addRange(src, 0, seg)
	smp := drawSample(&tr, r.seed, sz.heavy, sz.present, sz.absent)
	users, order := sampledUsers(smp)
	r.keys = src.fill(make([]stream.Edge, min(seg, sz.layerEdges)), 0)

	var (
		ack, est, topk latencies
		rates          []float64
		rss, are, rel  float64
		secs           float64
		total          int
	)
	for c := 0; c < cycles; c++ {
		d, err := r.startDaemon(sketchArgs("freers"), true, 3, (*daemon).stop)
		if err != nil {
			return err
		}
		defer d.kill()
		o, err := r.observe(d)
		if err != nil {
			return err
		}
		acked, dt, err := r.sendFrames(d.tcpAddr, src, c*seg, seg, &ack)
		if err != nil {
			return err
		}
		total, secs = total+acked, secs+dt
		rates = append(rates, float64(acked)/dt)
		h := newHTTPConn(d.httpURL)
		defer h.close()
		if err := h.post("/flush"); err != nil {
			return err
		}
		ests, top := r.readRound(h, users, order, &est, &topk, sz.topkProbes)
		again, _ := r.readRound(h, users, order, &est, &topk, sz.topkProbes)
		for i := range again {
			r.check(again[i] == ests[i], "estimate of user %d changed between reads of an idle daemon", users[i])
		}
		r.checkAccuracy(&tr, smp, ests, top, true, r.readTotal(h))
		are, rel = are+r.userARE, rel+r.totalRelErr
		m1, err := o.finish(r, acked)
		if err != nil {
			return err
		}
		r.checkIngested(o.m0, m1, acked)
		h.close()
		rss = max(rss, d.peakRSSMiB())
		if err := r.stopDaemon(d, rss); err != nil || r.invalid != "" {
			return err
		}
	}
	r.userARE, r.totalRelErr = are/cycles, rel/cycles
	r.setE2E("user_are", "ratio", r.userARE)
	r.setRate(total, secs, rates)
	r.headline = r.e2e["ingest_edges_per_s"].Value
	r.setLatency("ack", "ms", &ack, 90)
	r.setLatency("estimate", "us", &est, 90)
	r.setLatency("topk", "ms", &topk, 90)
	return nil
}

// stopDaemon reports peak RSS, marks the run invalid if the daemon died
// on its own, and stops it.
func (r *run) stopDaemon(d *daemon, rssMiB float64) error {
	r.setE2E("daemon_rss_mb", "MiB", rssMiB)
	if d.died() {
		r.invalid = "cardserved died during the run: " + d.tail()
		return nil
	}
	return d.stop()
}

// sendFrames streams edges [lo, lo+n) of the source over a new CWT1
// connection with at most window unacked frames, and returns the acked
// edge count and the seconds from the first send to the last ack.
func (r *run) sendFrames(addr string, src *source, lo, n int, ack *latencies) (int, float64, error) {
	const window = 64
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, 0, err
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(stream.TCPMagic)); err != nil {
		return 0, 0, err
	}
	nFrames := (n + frameEdges - 1) / frameEdges
	frameLen := func(seq int) int { return min(frameEdges, n-(seq-1)*frameEdges) }

	// slots carries the time each window slot was freed; sent carries
	// each frame's send time to the ack reader, in sequence order.
	slots := make(chan time.Time, window)
	sent := make(chan time.Time, window)
	start := time.Now()
	for i := 0; i < window; i++ {
		slots <- start
	}
	var (
		lastAck time.Time
		acked   int
		readErr error
		lates   []float64
		done    = make(chan struct{})
	)
	go func() {
		defer close(done)
		br := bufio.NewReader(conn)
		var rec [stream.AckLen]byte
		for seq := 1; seq <= nFrames; seq++ {
			if _, err := io.ReadFull(br, rec[:]); err != nil {
				readErr = fmt.Errorf("waiting for ack %d of %d: %w", seq, nFrames, err)
				return
			}
			now := time.Now()
			got, status, err := stream.ParseAck(rec[:])
			t := <-sent
			switch {
			case err != nil:
				readErr = err
				return
			case got != uint64(seq):
				readErr = fmt.Errorf("ack for frame %d, want %d", got, seq)
				return
			case status != stream.AckOK:
				ack.fail()
				r.failed++
				r.problems = append(r.problems, fmt.Sprintf("frame %d refused with status %d", seq, status))
			default:
				ack.add(msSince(t, now))
				acked += frameLen(seq)
				lastAck = now
			}
			slots <- now
		}
	}()

	edges := make([]stream.Edge, frameEdges)
	var frame []byte
	prevWrite := start
	var sendErr error
	for seq := 1; seq <= nFrames; seq++ {
		var freed time.Time
		select {
		case freed = <-slots:
		case <-done:
		}
		if freed.IsZero() {
			break // the ack reader stopped; its error explains why
		}
		ready := freed
		if prevWrite.After(ready) {
			ready = prevWrite
		}
		k := frameLen(seq)
		src.fill(edges[:k], lo+(seq-1)*frameEdges)
		frame = stream.AppendFrameHeader(frame[:0], uint64(seq), stream.WireSize(k))
		frame = stream.AppendWire(frame, edges[:k])
		now := time.Now()
		lates = append(lates, msSince(ready, now))
		sent <- now
		r.attempted++
		if _, err := conn.Write(frame); err != nil {
			sendErr = err
			break
		}
		prevWrite = time.Now()
	}
	<-done
	r.late = append(r.late, lates...)
	if readErr != nil {
		return 0, 0, readErr
	}
	if sendErr != nil {
		return 0, 0, sendErr
	}
	return acked, lastAck.Sub(start).Seconds(), nil
}

// runQueryMixed: after an untimed CWB1 pre-fill that reaches at least
// minUsers users, text line-protocol ingest is paced at a fixed edge rate
// (open loop) on one connection, with POST /rotate after fixed edge
// offsets, while a second connection sends fixed-rate point queries, /total
// and /topk?k=100 (open loop). Snapshot publication, the fold cache, top-k,
// the HTTP handlers and rotation do the work; the kernel is lightly loaded.
func runQueryMixed(r *run) error {
	sz := r.sz
	r.method = "freers"
	r.path = []string{"stream.ParseTextBatch", "stream.Partitioner.Split", "streamcard.Sharded.ObserveShardBatch"}
	interval := time.Duration(float64(sz.pacedBatch) / sz.pacedRate * float64(time.Second))
	nb := int(r.seconds * sz.pacedRate / float64(sz.pacedBatch))
	if nb < 4 {
		return errors.New("query_mixed needs at least 4 paced batches")
	}
	P, B := sz.prefill, sz.pacedBatch
	src, err := newSource("flickr", sz.mixedScale, r.seed, P+nb*B)
	if err != nil {
		return err
	}
	// Rotations follow paced batches nb/4, nb/2 and 3nb/4: four epochs, all
	// still live under 4 generations, so the truth is the sum of the four.
	rotAfter := map[int]bool{nb/4 - 1: true, nb/2 - 1: true, 3*nb/4 - 1: true}
	var tr truth
	lo := 0
	for _, b := range []int{nb / 4, nb / 2, 3 * nb / 4, nb} {
		tr.addRange(src, lo, P+b*B)
		lo = P + b*B
	}
	if P < len(src.base) {
		users := src.tracker(0, P).NumUsers()
		r.check(users >= sz.minUsers, "pre-fill reaches %d users, want at least %d", users, sz.minUsers)
	}
	smp := drawSample(&tr, r.seed, sz.heavy, sz.present, sz.absent)
	r.keys = src.fill(make([]stream.Edge, min(src.len(), sz.layerEdges)), 0)

	// Encode everything before the clock starts.
	edges := make([]stream.Edge, max(B, 8192))
	var prefill [][]byte
	for off := 0; off < P; off += 8192 {
		k := min(8192, P-off)
		prefill = append(prefill, stream.AppendWire(nil, src.fill(edges[:k], off)))
	}
	bodies := make([][]byte, nb)
	for i := range bodies {
		var buf bytes.Buffer
		if err := stream.WriteText(&buf, src.fill(edges[:B], P+i*B)); err != nil {
			return err
		}
		bodies[i] = buf.Bytes()
	}
	type ingOp struct {
		batch  int // -1 for a rotation
		dueIdx int
	}
	var ingOps []ingOp
	for i := 0; i < nb; i++ {
		ingOps = append(ingOps, ingOp{i, i})
		if rotAfter[i] {
			ingOps = append(ingOps, ingOp{-1, i})
		}
	}
	// Both connections run on one cycle, the paced batch interval (100 ms).
	// The text batch is due at its start, when the daemon also copies the
	// generation it writes (copy-on-write behind the published snapshot).
	// Twenty point reads (heavy, present, absent and present users in turn)
	// are due 2.5 ms apart from 20% of the cycle, the last replaced by a
	// /total every other cycle, and a /topk at 75%: placed last, a slow
	// top-k overlaps the next batch rather than the reads queued behind it
	// on its connection.
	cycle := interval
	const reads = 20
	type qOp struct {
		path string
		kind string // topk, estimate, absent or total
		due  time.Duration
	}
	var qOps []qOp
	pick := func(c, j int) qOp {
		switch j % 4 {
		case 0:
			return qOp{estimatePath(smp.heavy[(c*reads/4+j/4)%len(smp.heavy)]), "estimate", 0}
		case 2:
			return qOp{estimatePath(smp.absent[(c*reads/4+j/4)%len(smp.absent)]), "absent", 0}
		default:
			return qOp{estimatePath(smp.present[(c*reads/2+j/2)%len(smp.present)]), "estimate", 0}
		}
	}
	for c := 0; c < nb; c++ {
		base := time.Duration(c) * cycle
		for j := 0; j < reads; j++ {
			op := pick(c, j)
			if j == reads-1 && c%2 == 0 {
				op = qOp{"/total", "total", 0}
			}
			op.due = base + cycle/5 + time.Duration(j)*cycle/40
			qOps = append(qOps, op)
		}
		qOps = append(qOps, qOp{"/topk?k=" + strconv.Itoa(topkK), "topk", base + cycle*3/4})
	}

	d, err := r.startDaemon(sketchArgs("freers"), false, 7, (*daemon).stop)
	if err != nil {
		return err
	}
	defer d.kill()
	ing, q := newHTTPConn(d.httpURL), newHTTPConn(d.httpURL)
	defer ing.close()
	defer q.close()
	for _, body := range prefill {
		if _, err := ing.do("POST", "/ingest", stream.WireContentType, body); err != nil {
			return fmt.Errorf("pre-fill: %w", err)
		}
	}
	if err := ing.post("/flush"); err != nil {
		return err
	}
	o, err := r.observe(d)
	if err != nil {
		return err
	}

	t0 := time.Now().Add(20 * time.Millisecond)
	var ingT, qT []opTiming
	absentBad := 0
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ingT = openLoop(t0, len(ingOps), func(i int) time.Duration { return time.Duration(ingOps[i].dueIdx) * interval },
			func(i int) error {
				if ingOps[i].batch < 0 {
					return ing.post("/rotate")
				}
				_, err := ing.do("POST", "/ingest", "text/plain", bodies[ingOps[i].batch])
				return err
			})
	}()
	go func() {
		defer wg.Done()
		qT = openLoop(t0, len(qOps), func(i int) time.Duration { return qOps[i].due },
			func(i int) error {
				body, err := q.get(qOps[i].path)
				if err == nil && qOps[i].kind == "absent" {
					if v, perr := parseEstimate(body); perr != nil || v != 0 {
						absentBad++
					}
				}
				return err
			})
	}()
	wg.Wait()
	r.check(absentBad == 0, "%d reads of absent users returned a nonzero estimate", absentBad)

	var ack, est, topk, other latencies
	for i, t := range ingT {
		if ingOps[i].batch < 0 {
			r.record(&other, t, 1)
		} else {
			r.record(&ack, t, 1)
		}
	}
	for i, t := range qT {
		switch qOps[i].kind {
		case "topk":
			r.record(&topk, t, 1)
		case "total":
			r.record(&other, t, 1)
		default:
			r.record(&est, t, 1000)
		}
	}
	rate := float64(nb*B) / ingT[len(ingT)-1].done.Sub(t0).Seconds()
	r.setE2E("ingest_edges_per_s", "1/s", rate)
	r.edgeNs = 1e9 / rate
	r.setLatency("ack", "ms", &ack, 90)
	r.setLatency("estimate", "us", &est, 90)
	r.setLatency("topk", "ms", &topk, 90)
	r.headline = r.e2e["estimate_p50_us"].Value

	if err := ing.post("/flush"); err != nil {
		return err
	}
	m1, err := o.finish(r, nb*B)
	if err != nil {
		return err
	}
	r.check(m1["cardserved_edges_ingested_total"] == float64(P+nb*B), "daemon ingested %.0f edges, %d were acked",
		m1["cardserved_edges_ingested_total"], P+nb*B)
	r.check(m1["cardserved_rotations_total"] == 3, "daemon rotated %.0f times, want 3", m1["cardserved_rotations_total"])
	r.readback(q, &tr, smp, 1)
	return r.stopDaemon(d, d.peakRSSMiB())
}

// runDurableRestart: one client sends CWB1 batches over HTTP and waits for
// each ack; FreeBS with -wal-sync always. The stream is cut into `cycles`
// equal cycles, each on a freshly restarted daemon but the first: the
// cycle sends its share with POST /checkpoint after three quarters of it,
// reads the sampled users back (timed), and is SIGKILLed; the restart on
// the same spool and WAL restores the checkpoint and replays the quarter
// past it. The last restart must answer exactly as before its kill.
// Cycles spread every kind of measurement over the whole run rather than
// packing it into one phase of it.
func runDurableRestart(r *run) error {
	sz := r.sz
	r.method = "freebs"
	r.path = []string{"stream.DecodeWire", "wal.WAL.AppendBatch", "wal.WAL.Commit", "stream.Partitioner.Split", "streamcard.Sharded.ObserveShardBatch"}
	B := sz.durableBatch
	cb := int(r.seconds*sz.durableRate/float64(B)) / cycles / 4 * 4 // batches per cycle, whole quarters
	if cb < 4 {
		return errors.New("durable_restart needs at least 4 batches per cycle")
	}
	n := cycles * cb * B
	ckptAt := 3 * cb / 4 // the cycle checkpoints after this many batches
	tail := (cb - ckptAt) * B
	src, err := newSource("flickr", sz.durableScale, r.seed, n)
	if err != nil {
		return err
	}
	var tr truth
	tr.addRange(src, 0, n)
	smp := drawSample(&tr, r.seed, sz.heavy, sz.present, sz.absent)
	users, order := sampledUsers(smp)
	r.keys = src.fill(make([]stream.Edge, min(n, sz.layerEdges)), 0)

	dir := filepath.Join(r.work, "durable")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	args := append(sketchArgs("freebs"), "-wal-dir", filepath.Join(dir, "wal"), "-wal-sync", "always",
		"-spool", filepath.Join(dir, "spool"))
	d, _, err := startDaemon(r.bin, args, false, r.traced)
	if err != nil {
		return err
	}
	defer func() { d.kill() }() // whichever daemon runs last
	var (
		ack, other, est, topk latencies
		rates                 []float64
		rss, total, secs      float64
		ests                  []float64
		top                   []topEntry
		edges                 = make([]stream.Edge, B)
		body                  []byte
	)
	for c := 0; c < cycles; c++ {
		// Reads come only after the cycle's ingest: on a restarted daemon
		// the first read would arm per-batch snapshot publication for it.
		o, err := r.observe(d)
		if err != nil {
			return err
		}
		if c > 0 {
			replayed := o.m0["cardserved_edges_ingested_total"]
			r.check(replayed == float64(tail), "restart %d replayed %.0f edges, want the %d acked past the last checkpoint",
				c, replayed, tail)
		}
		h := newHTTPConn(d.httpURL)
		defer h.close()
		t0 := time.Now()
		ready, last := t0, t0
		for b := c * cb; b < (c+1)*cb; b++ {
			body = stream.AppendWire(body[:0], src.fill(edges, b*B))
			start := time.Now()
			_, err := h.do("POST", "/ingest", stream.WireContentType, body)
			last = time.Now()
			r.record(&ack, opTiming{latMs: msSince(start, last), lateMs: msSince(ready, start), err: err}, 1)
			ready = last
			if b-c*cb == ckptAt-1 {
				r.record(&other, timed(func() error { return h.post("/checkpoint") }), 1)
				ready = time.Now()
			}
		}
		secs += last.Sub(t0).Seconds()
		rates = append(rates, float64(cb*B)/last.Sub(t0).Seconds())
		if err := h.post("/flush"); err != nil {
			return err
		}
		m1, err := o.finish(r, cb*B)
		if err != nil {
			return err
		}
		r.checkIngested(o.m0, m1, cb*B)
		// The read-back's own layer figures; the last cycle's stand.
		if o, err = r.observe(d); err != nil {
			return err
		}
		ests, top = r.readRound(h, users, order, &est, &topk, sz.topkProbes)
		again, _ := r.readRound(h, users, order, &est, &topk, sz.topkProbes)
		for i := range again {
			r.check(again[i] == ests[i], "estimate of user %d changed between reads of an idle daemon", users[i])
		}
		total = r.readTotal(h)
		if _, err := o.finish(r, 0, "server.handler_p99_ms.estimate", "server.handler_p99_ms.topk", "streamcard.fold_hit_ratio"); err != nil {
			return err
		}
		rss = max(rss, d.peakRSSMiB())
		if d.died() {
			r.invalid = "cardserved died before the planned kill: " + d.tail()
			return nil
		}
		d.kill()
		h.close()
		if d, err = r.startDaemon(args, false, 1, nil); err != nil {
			return err
		}
	}
	r.setRate(n, secs, rates)
	r.headline = r.e2e["ingest_edges_per_s"].Value
	r.setLatency("ack", "ms", &ack, 90)
	r.setLatency("estimate", "us", &est, 90)
	r.setLatency("topk", "ms", &topk, 90)

	h := newHTTPConn(d.httpURL)
	defer h.close()
	m, err := h.scrape()
	if err != nil {
		return err
	}
	r.check(m["cardserved_edges_ingested_total"] == float64(tail), "the last restart replayed %.0f edges, want the %d acked past the last checkpoint",
		m["cardserved_edges_ingested_total"], tail)
	after, _ := r.readRound(h, users, order, nil, nil, 0)
	diff := 0
	for i := range ests {
		if ests[i] != after[i] {
			diff++
		}
	}
	r.check(diff == 0, "%d of %d sampled estimates changed across kill and restart", diff, len(ests))
	r.check(r.readTotal(h) == total, "/total changed across kill and restart")
	r.checkAccuracy(&tr, smp, ests, top, true, total)
	return r.stopDaemon(d, max(rss, d.peakRSSMiB()))
}
