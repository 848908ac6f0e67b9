package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/hashing"
	"repro/internal/stream"
)

// Fixed run shape shared by the workloads.
const (
	frameEdges = 2048 // edges per CWT1 frame / CWB1 batch
	topkK      = 100
	cycles     = 12 // closed-loop runs are this many ingest cycles
	// lateLimitMs invalidates a run whose generator sent its operations
	// this late at p99: its latencies would measure the generator.
	lateLimitMs = 25
	// mbits is the sketch budget every workload serves: the default 2^26
	// bits over 8 shards and 4 generations, so one generation is 8 MiB,
	// four times a 2 MiB per-core L2, and register writes miss cache.
	mbits = "67108864"
)

// sizes are the workload dimensions; tests shrink them.
type sizes struct {
	ingestScale  float64 // datagen flickr scale of ingest_tcp's dataset
	ingestRate   float64 // edges/s that size ingest_tcp's stream per second of run
	mixedScale   float64 // query_mixed's dataset
	prefill      int     // query_mixed untimed CWB1 pre-fill, edges
	minUsers     int     // users the pre-fill must reach
	pacedRate    float64 // query_mixed text ingest, edges/s
	pacedBatch   int     // query_mixed text batch, edges
	durableScale float64 // durable_restart's dataset
	durableRate  float64 // edges/s that size durable_restart's stream
	durableBatch int
	heavy        int // users read back: heaviest, random present, absent
	present      int
	absent       int
	topkProbes   int // closed-loop /topk reads per read-back round
	layerEdges   int // workload edges the in-process layer suite replays
}

var fullSizes = sizes{
	ingestScale: 0.1, ingestRate: 8e6,
	mixedScale: 0.1, prefill: 1_200_000, minUsers: 100_000, pacedRate: 100_000, pacedBatch: 10_000,
	durableScale: 0.1, durableRate: 1_500_000, durableBatch: 32_768,
	heavy: 100, present: 2000, absent: 200, topkProbes: 100,
	layerEdges: 1 << 20,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is one workload execution and everything it measured.
type run struct {
	seed    uint64
	seconds float64
	bin     string // the cardserved binary
	work    string // scratch directory for spools and WALs
	traced  bool
	sz      sizes

	e2e       map[string]metric
	layer     map[string]metric
	samples   map[string]int     // sample count behind each latency metric
	tails     map[string]float64 // p95/p99 of each latency set, for the info line
	rateWins  []float64          // the ingest phases' own rates, for the info line
	setups    []float64          // daemon start-up times behind setup_s
	attempted int
	failed    int
	problems  []string // failed correctness checks
	invalid   string   // why the run cannot be reported as numbers

	totalRelErr, userARE float64
	late                 []float64 // generator lateness samples, ms
	headline             float64   // the metric trace.overhead_pct compares
	edgeNs               float64   // end-to-end wall ns per ingested edge
	method               string    // freers or freebs
	keys                 []stream.Edge
	path                 []string // layer spans on this workload's ingest path
}

func newRun(seed uint64, seconds float64, bin, work string, traced bool, sz sizes) *run {
	return &run{
		seed: seed, seconds: seconds, bin: bin, work: work, traced: traced, sz: sz,
		e2e: make(map[string]metric), layer: make(map[string]metric), samples: make(map[string]int), tails: make(map[string]float64),
	}
}

func (r *run) setE2E(name, unit string, v float64)   { r.e2e[name] = metric{v, unit} }
func (r *run) setLayer(name, unit string, v float64) { r.layer[name] = metric{v, unit} }

func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// record folds one operation's outcome into its latency set.
func (r *run) record(l *latencies, t opTiming, scale float64) {
	r.attempted++
	r.late = append(r.late, t.lateMs)
	if t.err != nil {
		r.failed++
		l.fail()
		r.problems = append(r.problems, t.err.Error())
		return
	}
	l.add(t.latMs * scale)
}

// setLatency reports a latency set's median and its tail percentile pct
// over the whole run as base_p50_unit and base_p<pct>_unit, with the
// sample count. A tail without tailSamples samples beyond it makes the run
// invalid.
func (r *run) setLatency(base, unit string, l *latencies, pct int) {
	p50, _ := percentile(l.vals, 0.5)
	tail, ok := percentile(l.vals, float64(pct)/100)
	if !ok {
		r.invalid = fmt.Sprintf("%s_p%d needs %d samples beyond it; have %d samples", base, pct, tailSamples, l.count())
	}
	r.setE2E(base+"_p50_"+unit, unit, p50)
	r.setE2E(fmt.Sprintf("%s_p%d_%s", base, pct, unit), unit, tail)
	r.samples[base] = l.count()
	// Higher percentiles, for the info line only.
	for _, p := range []int{95, 99} {
		if v, ok := percentile(l.vals, float64(p)/100); ok {
			r.tails[fmt.Sprintf("%s_p%d", base, p)] = v
		}
	}
}

// setRate reports ingest_edges_per_s as the acked edges over the time
// spent ingesting them; cycles are the rates of the run's ingest phases,
// for the info line.
func (r *run) setRate(edges int, seconds float64, cycles []float64) {
	rate := float64(edges) / seconds
	r.rateWins = cycles
	r.setE2E("ingest_edges_per_s", "1/s", rate)
	r.edgeNs = 1e9 / rate
}

// startDaemon starts cardserved n times, ending every start but the last
// with end, and reports the median of all the run's start-up times so far
// as setup_s.
func (r *run) startDaemon(args []string, tcp bool, n int, end func(*daemon) error) (*daemon, error) {
	for i := 0; ; i++ {
		d, s, err := startDaemon(r.bin, args, tcp, r.traced)
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, s)
		r.setE2E("setup_s", "s", median(r.setups))
		if i == n-1 {
			return d, nil
		}
		if err := end(d); err != nil {
			return nil, err
		}
	}
}

// observer brackets a measured phase: /metrics scrapes at both ends on its
// own connection, the daemon's CPU time and the generator's own rusage,
// and in a traced run a 50 ms /metrics poller and the daemon's gctrace.
type observer struct {
	d      *daemon
	h      *httpConn
	t0     time.Time
	m0     promSample
	cpu0   float64
	gen0   float64
	stop   chan struct{}
	wg     sync.WaitGroup
	depths []float64
}

func genCPU() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func (r *run) observe(d *daemon) (*observer, error) {
	o := &observer{d: d, h: newHTTPConn(d.httpURL), stop: make(chan struct{})}
	m0, err := o.h.scrape()
	if err != nil {
		return nil, err
	}
	o.m0, o.t0, o.cpu0, o.gen0 = m0, time.Now(), d.cpuSeconds(), genCPU()
	if r.traced {
		poller := newHTTPConn(d.httpURL)
		o.wg.Add(1)
		go func() {
			defer o.wg.Done()
			defer poller.close()
			t := time.NewTicker(50 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-o.stop:
					return
				case <-t.C:
					if m, err := poller.scrape(); err == nil {
						o.depths = append(o.depths, m["cardserved_queue_depth"])
					}
				}
			}
		}()
	}
	return o, nil
}

// finish closes the phase and returns the scrape at its end. edges is the
// number of edges the phase ingested; keep, when non-empty, names the only
// layer metrics this phase sets.
func (o *observer) finish(r *run, edges int, keep ...string) (promSample, error) {
	close(o.stop)
	o.wg.Wait()
	defer o.h.close()
	m1, err := o.h.scrape()
	if err != nil {
		return nil, err
	}
	set := func(name, unit string, v float64) {
		if len(keep) == 0 || slices.Contains(keep, name) {
			r.setLayer(name, unit, v)
		}
	}
	m0 := o.m0
	hist := func(handler string) float64 {
		return 1000 * histDeltaQuantile(m0, m1, "cardserved_http_request_seconds", `handler="`+handler+`"`, 0.99)
	}
	set("server.handler_p99_ms.ingest", "ms", hist("/ingest"))
	set("server.handler_p99_ms.estimate", "ms", hist("/estimate"))
	set("server.handler_p99_ms.topk", "ms", hist("/topk"))
	set("server.coalesce_ratio", "ratio", ratio(delta(m0, m1, "cardserved_coalesced_batches_total"),
		delta(m0, m1, "cardserved_batches_total")))
	var mean, mx float64
	for _, v := range o.depths {
		mean += v / float64(len(o.depths))
		mx = math.Max(mx, v)
	}
	set("server.queue_depth_mean", "count", mean)
	set("server.queue_depth_max", "count", mx)
	set("server.tcp_stalls_per_mframe", "count", 1e6*ratio(delta(m0, m1, "cardserved_tcp_backpressure_stalls_total"),
		delta(m0, m1, "cardserved_tcp_frames_total")))
	hits, computes := delta(m0, m1, "cardserved_fold_cache_hits_total"), delta(m0, m1, "cardserved_fold_cache_computes_total")
	set("streamcard.fold_hit_ratio", "ratio", ratio(hits, hits+computes))
	cycles, total, maxPause := o.d.gcSince(o.t0)
	set("runtime.gc_cycles", "count", float64(cycles))
	set("runtime.gc_pause_ms_total", "ms", total)
	set("runtime.gc_pause_max_ms", "ms", maxPause)
	set("daemon.cpu_s_per_medge", "s", ratio(o.d.cpuSeconds()-o.cpu0, float64(edges)/1e6))
	set("gen.cpu_s", "s", genCPU()-o.gen0)
	return m1, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sampledUsers lists the sample's users, heavy then present then absent,
// and a fixed shuffled order to read them in, so that timing is not
// grouped by kind.
func sampledUsers(smp sample) (users []uint64, order []int) {
	users = append(append(append([]uint64(nil), smp.heavy...), smp.present...), smp.absent...)
	order = make([]int, len(users))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return hashing.Mix64(uint64(order[a])) < hashing.Mix64(uint64(order[b])) })
	return users, order
}

// readRound reads every user's estimate in the given order and then /topk
// probes times, and returns the estimates (in users' order) and the last
// top-k. With estLat and topkLat set, every read is timed into them.
func (r *run) readRound(h *httpConn, users []uint64, order []int, estLat, topkLat *latencies, probes int) (ests []float64, top []topEntry) {
	ests = make([]float64, len(users))
	for _, i := range order {
		var body []byte
		t := timed(func() (err error) { body, err = h.get(estimatePath(users[i])); return })
		if estLat != nil {
			r.record(estLat, t, 1000) // µs
		} else if t.err != nil {
			r.check(false, "reading estimate: %v", t.err)
		}
		if t.err == nil {
			v, err := parseEstimate(body)
			r.check(err == nil, "estimate of user %d: %v", users[i], err)
			ests[i] = v
		}
	}
	for p := 0; p < probes; p++ {
		var body []byte
		t := timed(func() (err error) { body, err = h.get("/topk?k=" + strconv.Itoa(topkK)); return })
		if topkLat != nil {
			r.record(topkLat, t, 1)
		} else if t.err != nil {
			r.check(false, "reading /topk: %v", t.err)
		}
		if t.err == nil {
			var err error
			top, err = parseTopK(body)
			r.check(err == nil, "parsing /topk: %v", err)
		}
	}
	return ests, top
}

// readTotal reads /total.
func (r *run) readTotal(h *httpConn) float64 {
	b, err := h.get("/total")
	var total float64
	if err == nil {
		total, err = parseTotal(b)
	}
	r.check(err == nil, "reading /total: %v", err)
	return total
}

// readback reads the sampled users' estimates, /total and top-k (probes
// reads) once, untimed, checks them against exact truth, and sets the
// run's accuracy.
func (r *run) readback(h *httpConn, tr *truth, smp sample, probes int) {
	users, order := sampledUsers(smp)
	ests, top := r.readRound(h, users, order, nil, nil, probes)
	r.checkAccuracy(tr, smp, ests, top, probes > 0, r.readTotal(h))
}

// checkAccuracy checks the sampled users' estimates (in sampledUsers
// order), top-k when checkTop is set, and /total against exact truth, and
// sets the run's accuracy.
func (r *run) checkAccuracy(tr *truth, smp sample, ests []float64, top []topEntry, checkTop bool, total float64) {
	if checkTop {
		r.checkTopK(tr, top)
	}
	var are float64
	for i, u := range smp.present {
		c := float64(tr.card(u))
		are += math.Abs(ests[len(smp.heavy)+i]-c) / c
	}
	r.userARE = are / float64(max(1, len(smp.present)))
	r.setE2E("user_are", "ratio", r.userARE)
	for i, u := range smp.heavy {
		c := float64(tr.card(u))
		e := ests[i]
		r.check(math.Abs(e-c) <= 0.25*c, "heavy user %d: estimate %.1f, exact %.0f", u, e, c)
	}
	for i := range smp.absent {
		e := ests[len(smp.heavy)+len(smp.present)+i]
		r.check(e == 0, "absent user %d: estimate %g, want 0", smp.absent[i], e)
	}
	r.check(r.userARE <= 1, "user ARE %.3f beyond the 1.0 sanity bound", r.userARE)

	exactTotal := float64(tr.total())
	r.totalRelErr = math.Abs(total-exactTotal) / exactTotal
	r.check(r.totalRelErr <= 0.05, "/total %.0f vs exact %.0f: relative error %.4f beyond 0.05", total, exactTotal, r.totalRelErr)
}

// checkTopK checks that /topk is ordered and contains the exact ten
// heaviest users.
func (r *run) checkTopK(tr *truth, top []topEntry) {
	r.check(len(top) == min(topkK, len(tr.users())), "/topk returned %d entries", len(top))
	for i := 1; i < len(top); i++ {
		r.check(top[i].Estimate <= top[i-1].Estimate, "/topk not ordered at %d", i)
	}
	got := make(map[uint64]bool, len(top))
	for _, e := range top {
		got[e.User] = true
	}
	for _, u := range exactTop(tr, 10) {
		r.check(got[u], "/topk misses exact top-10 user %d", u)
	}
}

// timed runs a closed-loop operation: due when called, so lateness is 0.
func timed(op func() error) opTiming {
	t0 := time.Now()
	err := op()
	return opTiming{latMs: msSince(t0, time.Now()), err: err}
}

// checkIngested checks that the daemon absorbed exactly the acked edges.
func (r *run) checkIngested(m0, m1 promSample, acked int) {
	got := delta(m0, m1, "cardserved_edges_ingested_total")
	r.check(got == float64(acked), "daemon ingested %.0f edges, generator had %d acked", got, acked)
}
