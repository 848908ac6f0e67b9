package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// syncBuffer lets the test read run()'s output while run() still writes it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenRe = regexp.MustCompile(`listening on ([0-9.:\[\]]+)`)

// startDaemon runs the daemon on an ephemeral port and returns its base
// URL, the signal channel that stops it, and a channel with run's error.
func startDaemon(t *testing.T, args []string) (string, chan os.Signal, <-chan error, *syncBuffer) {
	t.Helper()
	out := &syncBuffer{}
	sig := make(chan os.Signal, 1)
	errc := make(chan error, 1)
	go func() { errc <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), out, sig) }()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := listenRe.FindStringSubmatch(out.String()); m != nil {
			return "http://" + m[1], sig, errc, out
		}
		select {
		case err := <-errc:
			t.Fatalf("daemon exited early: %v\n%s", err, out.String())
		default:
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("daemon never listened:\n%s", out.String())
	return "", nil, nil, nil
}

func stopDaemon(t *testing.T, sig chan os.Signal, errc <-chan error) {
	t.Helper()
	sig <- syscall.SIGTERM
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not stop on SIGTERM")
	}
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// TestDaemonLifecycle walks the deployment story: start, ingest, query,
// SIGTERM (final checkpoint), restart from the spool, verify the state
// survived the restart byte for byte.
func TestDaemonLifecycle(t *testing.T) {
	spool := t.TempDir()
	args := []string{"-mbits", "1048576", "-shards", "2", "-gens", "2", "-spool", spool}

	base, sig, errc, _ := startDaemon(t, args)
	resp, err := http.Post(base+"/ingest?wait=1", "text/plain",
		strings.NewReader("1 100\n1 101\n1 102\n2 100\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest returned %d", resp.StatusCode)
	}
	code, body := httpGet(t, base+"/estimate?user=1")
	if code != http.StatusOK || !strings.Contains(body, `"estimate":3`) {
		t.Fatalf("estimate before restart: %d %s", code, body)
	}
	stopDaemon(t, sig, errc)
	if _, err := os.Stat(filepath.Join(spool, "current.ckpt")); err != nil {
		t.Fatalf("SIGTERM left no checkpoint: %v", err)
	}

	// Restart: the estimate must come back identical from the spool.
	base2, sig2, errc2, _ := startDaemon(t, args)
	code, body2 := httpGet(t, base2+"/estimate?user=1")
	if code != http.StatusOK || body2 != body {
		t.Fatalf("restored estimate differs: %q vs %q", body2, body)
	}
	stopDaemon(t, sig2, errc2)
}

// TestDaemonWallClockRotation: a short -epoch advances epochs without any
// client calling /rotate.
func TestDaemonWallClockRotation(t *testing.T) {
	base, sig, errc, _ := startDaemon(t, []string{
		"-mbits", "1048576", "-shards", "2", "-epoch", "30ms"})
	defer stopDaemon(t, sig, errc)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, body := httpGet(t, base+"/healthz"); !strings.Contains(body, `"epoch":0`) {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("epoch never advanced under -epoch 30ms")
}

func TestDaemonRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	sig := make(chan os.Signal)
	if err := run([]string{"-method", "nope"}, &out, sig); err == nil {
		t.Fatal("bad -method accepted")
	}
	if err := run([]string{"-gens", "1"}, &out, sig); err == nil {
		t.Fatal("-gens 1 accepted")
	}
	if err := run([]string{"-badflag"}, &out, sig); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestDaemonListenFailure(t *testing.T) {
	var out bytes.Buffer
	sig := make(chan os.Signal)
	if err := run([]string{"-addr", "256.0.0.1:bad"}, &out, sig); err == nil {
		t.Fatal("unlistenable address accepted")
	}
}

// TestHTTPServerTimeouts pins the connection deadlines of the HTTP server
// cardserved runs: a slow request header and an idle keep-alive connection
// are both cut off, and the -write-timeout flag reaches WriteTimeout.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler(), 3*time.Second)
	if srv.ReadHeaderTimeout <= 0 || srv.ReadHeaderTimeout != readHeaderTimeout {
		t.Errorf("ReadHeaderTimeout %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout <= 0 || srv.IdleTimeout != idleTimeout {
		t.Errorf("IdleTimeout %v, want %v", srv.IdleTimeout, idleTimeout)
	}
	if srv.WriteTimeout != 3*time.Second {
		t.Errorf("WriteTimeout %v, want the flag's 3s", srv.WriteTimeout)
	}
}
