package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestQueryBenchEmitsJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_query.json")
	var out bytes.Buffer
	err := run([]string{
		"-seconds", "0.3", "-edges", "120000", "-mbits", "1048576", "-shards", "2", "-gens", "3",
		"-batch", "4096", "-queriers", "4", "-qps", "2000", "-rotate", "20",
		"-out", path,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, raw)
	}
	if res.Edges != 120000 || res.Shards != 2 || res.Generations != 3 || res.Queriers != 4 {
		t.Fatalf("config not recorded: %+v", res)
	}
	if res.BaselineEdgesPerSec <= 0 || res.ContendedEdgesPerSec <= 0 {
		t.Fatalf("non-positive throughput: %+v", res)
	}
	if res.QueriesExecuted <= 0 {
		t.Fatal("no queries executed in the contended phase")
	}
	est, ok := res.QueryLatency["estimate"]
	if !ok || est.Count <= 0 || est.P99Us < est.P50Us {
		t.Fatalf("broken latency summary: %+v", res.QueryLatency)
	}
	// The transport phase drove both legs against real listeners: positive
	// throughput on each means every frame was acked end to end over both
	// HTTP and CWT1. The ratio itself is host-dependent and gated in CI,
	// not here.
	if res.TransportHTTPEdgesPerSec <= 0 || res.TransportTCPEdgesPerSec <= 0 {
		t.Fatalf("transport phase legs missing: %+v", res)
	}
	if res.TransportShards <= 0 || res.TransportFrameEdges <= 0 || res.TransportWindow <= 0 {
		t.Fatalf("transport config not recorded: %+v", res)
	}
	// All three WAL legs ran against a real log; the always leg pays an
	// fsync per batch, so it can never beat the interval leg by more than
	// noise.
	if res.WALOffEdgesPerSec <= 0 || res.WALIntervalEdgesPerSec <= 0 || res.WALAlwaysEdgesPerSec <= 0 {
		t.Fatalf("WAL phase legs missing: %+v", res)
	}
	if res.WALAlwaysOverheadPct < res.WALIntervalOverheadPct-10 {
		t.Fatalf("fsync-per-batch measured cheaper than group commit: interval +%.1f%%, always +%.1f%%",
			res.WALIntervalOverheadPct, res.WALAlwaysOverheadPct)
	}
}

func TestQueryBenchStdout(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-seconds", "0.2", "-edges", "40000", "-mbits", "524288", "-shards", "2", "-gens", "2",
		"-queriers", "2", "-qps", "1000", "-rotate", "0", "-out", "-",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	// stdout mode prints the JSON first, then the human summary lines.
	dec := json.NewDecoder(bytes.NewReader(out.Bytes()))
	var res Result
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("stdout is not JSON-led: %v\n%s", err, out.String())
	}
	if res.Edges != 40000 {
		t.Fatalf("config not recorded: %+v", res)
	}
}

func TestQueryBenchRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-edges", "0"}, &out); err == nil {
		t.Fatal("edges=0 accepted")
	}
	if err := run([]string{"-gens", "1"}, &out); err == nil {
		t.Fatal("gens=1 accepted")
	}
}
