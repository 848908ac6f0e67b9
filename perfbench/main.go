// Command perfbench is the repository's benchmark: it starts the real
// cardserved binary on loopback for one workload, drives it from this
// single generator process over at most two connections, checks every
// answer against exact truth, and prints the metrics as the last line of
// standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// is repeated with tracing (daemon gctrace, a /metrics poller, /proc) and
// followed by an in-process replay of the workload's keys through each
// module's public functions, and the metrics are the per-layer ones. The
// spans go to .bench_build/trace/. With -steady N the workload runs N
// times on consecutive seeds and the median and quartiles of every metric
// are printed. See README.md in this directory.
//
// Exit status: 0 when every check passed; 1 when a correctness check
// failed (the result line says "correct": false); 2 on a usage or set-up
// error and 3 for an invalid run, neither of which prints a result.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout))
}

func mainErr(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "ingest_tcp | query_mixed | durable_restart")
		seed     = fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = fs.Float64("seconds", 10, "nominal measured seconds; sizes the streams and schedules")
		trace    = fs.Int("trace", 0, "1 = report per-layer metrics from a traced run")
		steady   = fs.Int("steady", 0, "run the workload this many times on consecutive seeds and print medians and quartiles")
		bin      = fs.String("daemon", ".bench_build/bin/cardserved", "cardserved binary")
		work     = fs.String("work", ".bench_build/work", "scratch directory for spools, WALs and spans")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if workloads[*workload] == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload %s, -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	if _, err := os.Stat(*bin); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: daemon binary: %v\n", err)
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	meta := runMeta(*workload, *seed, *seconds, *trace)
	mj, _ := json.Marshal(meta)
	fmt.Fprintf(out, "perfbench-meta %s\n", mj)
	if *steady > 0 {
		return steadiness(out, *steady, *seed, []string{"-workload=" + *workload, "-trace=" + strconv.Itoa(*trace),
			"-seconds=" + strconv.FormatFloat(*seconds, 'g', -1, 64), "-daemon=" + *bin, "-work=" + *work})
	}

	res, err := execute(*workload, *seed, *seconds, *trace == 1, *bin, *work, fullSizes, meta)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 2
	}
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	if res.invalid != "" {
		fmt.Fprintf(os.Stderr, "perfbench: invalid run, not reported: %s\n", res.invalid)
		return 3
	}
	info, _ := json.Marshal(map[string]any{
		"samples": res.samples, "tails": res.tails, "cycle_rates": res.rateWins,
		"total_rel_err": res.totalRelErr, "user_are": res.userARE,
		"gen_late_p99_ms": res.lateP99,
	})
	fmt.Fprintf(out, "perfbench-info %s\n", info)
	line, _ := json.Marshal(map[string]any{
		"correct": len(res.problems) == 0, "attempted": res.attempted, "failed": res.failed, "metrics": res.metrics,
	})
	fmt.Fprintf(out, "%s\n", line)
	if len(res.problems) > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result is what one invocation reports.
type result struct {
	metrics              map[string]metric
	samples              map[string]int
	tails                map[string]float64
	rateWins             []float64
	attempted, failed    int
	problems             []string
	invalid              string
	totalRelErr, userARE float64
	lateP99              float64
}

// execute runs the workload once untraced; with traced it runs it again
// traced, replays its keys through the layers, and reports the per-layer
// metrics instead.
func execute(workload string, seed uint64, seconds float64, traced bool, bin, work string, sz sizes, meta map[string]any) (*result, error) {
	a := newRun(seed, seconds, bin, work, false, sz)
	if err := workloads[workload](a); err != nil {
		return nil, err
	}
	res := summarize(a)
	res.metrics = a.e2e
	if !traced || res.invalid != "" {
		return res, nil
	}
	a.keys = nil
	debug.FreeOSMemory()
	b := newRun(seed, seconds, bin, work, true, sz)
	if err := workloads[workload](b); err != nil {
		return nil, err
	}
	tb := summarize(b)
	tr := newTracer()
	if err := b.layerSuite(tr); err != nil {
		return nil, err
	}
	b.setLayer("gen.late_p99_ms", "ms", tb.lateP99)
	b.setLayer("accuracy.total_rel_err", "ratio", b.totalRelErr)
	// Positive overhead means the traced run did worse on the workload's
	// headline metric: ingest rate, or on query_mixed the estimate p50.
	over := (a.headline - b.headline) / a.headline
	if workload == "query_mixed" {
		over = -over
	}
	b.setLayer("trace.overhead_pct", "%", 100*over)
	path := filepath.Join(filepath.Dir(work), "trace", fmt.Sprintf("%s-seed%d.json", workload, seed))
	if err := tr.write(path, meta); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), path)
	res.metrics = b.layer
	res.attempted += tb.attempted
	res.failed += tb.failed
	res.problems = append(res.problems, tb.problems...)
	res.invalid = tb.invalid
	res.samples, res.tails, res.rateWins, res.lateP99 = tb.samples, tb.tails, tb.rateWins, tb.lateP99
	return res, nil
}

// summarize applies the validity rules to a finished run.
func summarize(r *run) *result {
	res := &result{samples: r.samples, tails: r.tails, rateWins: r.rateWins, attempted: r.attempted, failed: r.failed, problems: r.problems,
		invalid: r.invalid, totalRelErr: r.totalRelErr, userARE: r.userARE}
	res.lateP99, _ = percentile(r.late, 0.99)
	if res.invalid == "" && res.lateP99 > lateLimitMs {
		res.invalid = fmt.Sprintf("generator lateness p99 %.1f ms exceeds the %d ms limit", res.lateP99, lateLimitMs)
	}
	if r.attempted == 0 {
		res.invalid = "no operations attempted"
	}
	return res
}

// runMeta describes the host and the code a run measured.
func runMeta(workload string, seed uint64, seconds float64, trace int) map[string]any {
	return map[string]any{
		"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"l2": l2Size(), "commit": commit(),
	}
}

func l2Size() string {
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		lvl, err := os.ReadFile(dir + "level")
		if err != nil {
			break
		}
		typ, _ := os.ReadFile(dir + "type")
		if strings.TrimSpace(string(lvl)) == "2" && strings.TrimSpace(string(typ)) != "Instruction" {
			size, _ := os.ReadFile(dir + "size")
			return strings.TrimSpace(string(size))
		}
	}
	return "unknown"
}

// commit is the git commit when the checkout is a repository, and
// otherwise a digest of the Go sources and module files it holds.
func commit() string {
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(b))
	}
	h := sha256.New()
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			if b, err := os.ReadFile(p); err == nil {
				fmt.Fprintf(h, "%s %d\n", p, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// steadiness reruns this command n times on consecutive seeds and prints,
// per metric, the median and quartiles (Python's statistics.quantiles
// method) and the spread (q3−q1)/median the bounds are judged by.
func steadiness(out io.Writer, n int, seed uint64, args []string) int {
	seedOf := func(i int) uint64 { return seed + uint64(i) }
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, append(args, "-seed="+strconv.FormatUint(seedOf(i), 10))...)
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: steady run %d (seed %d): %v\n", i, seedOf(i), err)
			return 1
		}
		var last string
		sc := bufio.NewScanner(strings.NewReader(string(b)))
		for sc.Scan() {
			last = sc.Text()
		}
		var res struct {
			Metrics map[string]metric `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: steady run %d: %v\n", i, err)
			return 1
		}
		fmt.Fprintf(out, "run %d seed %d %s\n", i, seedOf(i), last)
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	summary := make(map[string]map[string]float64)
	for _, k := range names {
		q1, q2, q3 := quartiles(values[k])
		spread := ratio(q3-q1, q2)
		summary[k] = map[string]float64{"q1": q1, "median": q2, "q3": q3, "spread": spread}
		fmt.Fprintf(out, "%-40s %-6s median %-14.6g q1 %-14.6g q3 %-14.6g spread %.4f\n", k, units[k], q2, q1, q3, spread)
	}
	b, _ := json.Marshal(map[string]any{"runs": n, "steady": summary})
	fmt.Fprintf(out, "%s\n", b)
	return 0
}
