package portus_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBinariesEndToEnd builds the real executables and drives the whole
// deployment story as separate OS processes: portusd up, portus-train
// checkpoints over real sockets, portusctl inspects the live daemon,
// the daemon persists its namespace image on shutdown, and portusctl
// reads, exports, and repacks the image offline.
func TestBinariesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the cmd binaries")
	}
	bin := t.TempDir()
	for _, cmd := range []string{"portusd", "portus-train", "portusctl"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(bin, cmd), "./cmd/"+cmd).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", cmd, err, out)
		}
	}
	ctrl := freeAddr(t)
	fabric := freeAddr(t)
	admin := freeAddr(t)
	image := filepath.Join(t.TempDir(), "ns.img")

	// Start the daemon with the admin endpoint and verbose trace log.
	daemon := exec.Command(filepath.Join(bin, "portusd"),
		"-ctrl", ctrl, "-fabric", fabric, "-admin", admin, "-verbose",
		"-pmem-gib", "1", "-image", image)
	dlog := &lockedBuf{}
	daemon.Stdout = io.MultiWriter(os.Stderr, dlog)
	daemon.Stderr = io.MultiWriter(os.Stderr, dlog)
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer daemon.Process.Kill()
	waitForListener(t, ctrl)

	// Train with checkpoints every 5 iterations.
	train := exec.Command(filepath.Join(bin, "portus-train"),
		"-server", ctrl, "-server-fabric", fabric,
		"-model", "squeezenet1_0", "-iterations", "15", "-interval", "5",
		"-policy", "async", "-iter-millis", "2")
	out, err := train.CombinedOutput()
	if err != nil {
		t.Fatalf("portus-train: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "15 iterations") {
		t.Fatalf("train output missing completion: %s", out)
	}

	// Admin endpoint: health, metrics exposition, trace span trees.
	if body := adminGet(t, admin, "/healthz"); !strings.Contains(body, "ok") {
		t.Fatalf("healthz = %q", body)
	}
	metricsBody := adminGet(t, admin, "/metrics")
	for _, want := range []string{
		"portus_checkpoint_seconds_count",
		"portus_checkpoint_seconds_bucket",
		"portus_rdma_bytes_total",
		"portus_pmem_flush_ops_total",
	} {
		if !strings.Contains(metricsBody, want) {
			t.Fatalf("/metrics missing %s:\n%s", want, metricsBody)
		}
	}
	tracesBody := adminGet(t, admin, "/debug/traces")
	var traces []map[string]any
	if err := json.Unmarshal([]byte(tracesBody), &traces); err != nil {
		t.Fatalf("/debug/traces is not JSON: %v\n%s", err, tracesBody)
	}
	if len(traces) == 0 || traces[0]["kind"] != "checkpoint" {
		t.Fatalf("/debug/traces has no checkpoint traces: %s", tracesBody)
	}

	// portusctl stats renders the scraped counters and quantiles.
	stats, err := exec.Command(filepath.Join(bin, "portusctl"), "-admin", admin, "stats").CombinedOutput()
	if err != nil {
		t.Fatalf("portusctl stats: %v\n%s", err, stats)
	}
	for _, want := range []string{"checkpoints", "p50", "p99", "checkpoint_seconds"} {
		if !strings.Contains(string(stats), want) {
			t.Fatalf("stats output missing %q:\n%s", want, stats)
		}
	}

	// The -verbose flag logged per-checkpoint summaries from the ring.
	if !strings.Contains(dlog.String(), "checkpoint model=squeezenet1_0") {
		t.Fatalf("daemon log missing verbose checkpoint line:\n%s", dlog.String())
	}

	// Live inspection.
	list, err := exec.Command(filepath.Join(bin, "portusctl"), "-addr", ctrl, "list").CombinedOutput()
	if err != nil {
		t.Fatalf("portusctl list: %v\n%s", err, list)
	}
	if !strings.Contains(string(list), "squeezenet1_0") || !strings.Contains(string(list), "done") {
		t.Fatalf("list output missing model: %s", list)
	}

	// Live archive export.
	ckpt := filepath.Join(t.TempDir(), "sq.ckpt")
	dump, err := exec.Command(filepath.Join(bin, "portusctl"), "-addr", ctrl, "dump", "squeezenet1_0", ckpt).CombinedOutput()
	if err != nil {
		t.Fatalf("portusctl dump: %v\n%s", err, dump)
	}
	if fi, err := os.Stat(ckpt); err != nil || fi.Size() == 0 {
		t.Fatalf("archive missing: %v", err)
	}

	// Graceful shutdown persists the namespace image.
	if err := daemon.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- daemon.Wait() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("portusd did not exit on SIGINT")
	}
	if _, err := os.Stat(image); err != nil {
		t.Fatalf("namespace image not written: %v", err)
	}

	// Offline view and repack against the image.
	view, err := exec.Command(filepath.Join(bin, "portusctl"), "-image", image, "view").CombinedOutput()
	if err != nil {
		t.Fatalf("portusctl view: %v\n%s", err, view)
	}
	if !strings.Contains(string(view), "squeezenet1_0") {
		t.Fatalf("offline view missing model: %s", view)
	}
	insp, err := exec.Command(filepath.Join(bin, "portusctl"), "-image", image, "inspect", "squeezenet1_0").CombinedOutput()
	if err != nil {
		t.Fatalf("portusctl inspect: %v\n%s", err, insp)
	}
	if !strings.Contains(string(insp), "layers=52") || !strings.Contains(string(insp), "paddr=") {
		t.Fatalf("inspect output unexpected: %s", insp)
	}
	repack, err := exec.Command(filepath.Join(bin, "portusctl"), "-image", image, "repack").CombinedOutput()
	if err != nil {
		t.Fatalf("portusctl repack: %v\n%s", err, repack)
	}
	if !strings.Contains(string(repack), "kept 1 models") {
		t.Fatalf("repack output unexpected: %s", repack)
	}

	// A second daemon restores the repacked image and still serves it.
	ctrl2 := freeAddr(t)
	fabric2 := freeAddr(t)
	daemon2 := exec.Command(filepath.Join(bin, "portusd"),
		"-ctrl", ctrl2, "-fabric", fabric2, "-image", image)
	d2out := &lockedBuf{}
	daemon2.Stdout = d2out
	daemon2.Stderr = d2out
	if err := daemon2.Start(); err != nil {
		t.Fatal(err)
	}
	defer daemon2.Process.Kill()
	waitForListener(t, ctrl2)
	list2, err := exec.Command(filepath.Join(bin, "portusctl"), "-addr", ctrl2, "list").CombinedOutput()
	if err != nil {
		t.Fatalf("portusctl list (restored): %v\n%s", err, list2)
	}
	if !strings.Contains(string(list2), "squeezenet1_0") {
		t.Fatalf("restored daemon lost the model: %s\ndaemon log: %s", list2, d2out)
	}
	// The repack moved the model's bytes; archived again, they are the
	// archive taken before shutdown, byte for byte.
	ckpt2 := filepath.Join(t.TempDir(), "sq2.ckpt")
	dump2, err := exec.Command(filepath.Join(bin, "portusctl"), "-addr", ctrl2, "dump", "squeezenet1_0", ckpt2).CombinedOutput()
	if err != nil {
		t.Fatalf("portusctl dump (restored): %v\n%s", err, dump2)
	}
	before, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(ckpt2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("archive after the offline repack (%d bytes) differs from the one before shutdown (%d bytes)", len(after), len(before))
	}
	daemon2.Process.Signal(os.Interrupt)
	daemon2.Wait()
}

// lockedBuf collects a child process's output; the stdout and stderr
// pipe readers write it from separate goroutines.
type lockedBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (w *lockedBuf) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *lockedBuf) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// adminGet fetches a path from the daemon's admin endpoint.
func adminGet(t *testing.T, admin, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + admin + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// freeAddr grabs an unused loopback port.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// waitForListener polls until addr accepts connections.
func waitForListener(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			c.Close()
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("nothing listening at %s", addr)
}
