// Command portusd runs the Portus daemon: it owns the (simulated) devdax
// persistent-memory namespace, accepts model registrations over TCP, and
// performs checkpoint pulls and restore pushes over the soft-RDMA data
// plane.
//
// Example:
//
//	portusd -ctrl :7470 -fabric :7471 -admin :7472 -pmem-gib 8 -image /var/lib/portus/ns.img
//
// With -admin set, an HTTP listener serves /metrics (Prometheus text
// format), /debug/traces (JSON span trees of recent checkpoints), and
// /healthz; portusctl stats renders the same data as a table. With
// -verbose, every completed checkpoint/restore logs a one-line summary
// sourced from the trace ring buffer.
//
// On SIGINT/SIGTERM the daemon persists the namespace image (when -image
// is set) and exits.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	portus "github.com/portus-sys/portus"
	"github.com/portus-sys/portus/internal/metrics"
	"github.com/portus-sys/portus/internal/telemetry"
)

func main() {
	var cfg portus.ServerConfig
	flag.Var((*peerList)(&cfg.Peers), "peer", "storage-group member as NAME,CTRL_ADDR,FABRIC_ADDR[,WEIGHT_GIB]; repeat per peer (this daemon is added automatically)")
	flag.StringVar(&cfg.CtrlAddr, "ctrl", "127.0.0.1:7470", "control-plane listen address")
	flag.StringVar(&cfg.FabricAddr, "fabric", "127.0.0.1:7471", "soft-RDMA agent listen address")
	flag.StringVar(&cfg.NodeName, "node-name", "storage", "this daemon's storage-node name within its group")
	flag.IntVar(&cfg.Replicas, "replicas", 1, "storage-group replication factor: shards are accepted on their top-N rendezvous owners and checkpoints fan out to all of them")
	flag.IntVar(&cfg.Workers, "workers", 8, "daemon thread-pool width")
	flag.IntVar(&cfg.QueueCap, "queue-cap", 0, "total queued requests across all models before BUSY backpressure (0 = default 64, negative = unbounded)")
	flag.IntVar(&cfg.ModelQueueCap, "model-queue-cap", 0, "queued requests per model before BUSY backpressure (0 = default 8, negative = unbounded)")
	flag.BoolVar(&cfg.Materialized, "materialized", false, "store real checkpoint bytes instead of content fingerprints")
	flag.StringVar(&cfg.AdminAddr, "admin", "", "admin HTTP listen address serving /metrics, /debug/traces, /debug/events, /debug/pprof, /healthz (empty = disabled)")
	flag.IntVar(&cfg.PipelineDepth, "depth", 1, "datapath pipeline depth: chunks in flight past the pull stage (>= 2 overlaps flush with pull)")
	flag.IntVar(&cfg.Lanes, "lanes", 1, "queue-pair lanes checkpoint/restore transfers stripe chunks across")
	flag.IntVar(&cfg.RetryMax, "retry-max", 0, "transfer attempts per chunk before a checkpoint/restore fails (0 = default 3, negative = no retries)")
	flag.DurationVar(&cfg.RetryBackoff, "retry-backoff", 0, "base delay between per-chunk re-attempts, doubled each retry (0 = default 100us)")
	flag.IntVar(&cfg.LaneFailLimit, "lane-fail-limit", 0, "consecutive failures before a lane is quarantined and its work re-striped (0 = default 3, negative = never)")
	flag.BoolVar(&cfg.Degrade, "degrade", false, "fall back to slower transfer strategies (one-sided -> two-sided -> host-staged) on route-class fabric errors")
	flag.DurationVar(&cfg.SlowBudget, "slow-budget", 0, "slow-transfer watchdog budget: transfers slower than this are counted and their trace + event window captured at /debug/events (0 = disabled)")
	flag.Float64Var(&cfg.RepackWatermark, "repack-watermark", 0, "free-list fragmentation fraction of the data zone above which the engine wants an online repack pass (0 = default 0.5, negative = watermark disabled; out-of-space reclamation always runs)")
	flag.BoolVar(&cfg.RepackAuto, "repack-auto", false, "start a background online repack pass when a delete trips the watermark, instead of only reclaiming on out-of-space admissions")
	flag.BoolVar(&cfg.DeltaEnabled, "delta", false, "accept incremental checkpoints: pull only dirty blocks and copy-forward the rest from the previous version's slot in PMem")
	var (
		pmemGiB  = flag.Int64("pmem-gib", 4, "devdax data-zone capacity in GiB")
		metaMiB  = flag.Int64("meta-mib", 64, "metadata-zone capacity in MiB")
		chunkMiB = flag.Int64("chunk-mib", 0, "split tensors into transfer chunks of at most this many MiB (0 = one chunk per tensor)")
		deltaKiB = flag.Int64("delta-block-kib", 0, "pin the accepted digest block size in KiB; clients computing another size fall back to full checkpoints (0 = accept any)")
		image    = flag.String("image", "", "namespace image path: loaded at startup if present, saved at shutdown")
		verbose  = flag.Bool("verbose", false, "log a one-line summary for every completed checkpoint and restore")
	)
	flag.Parse()
	cfg.PMemBytes = *pmemGiB << 30
	cfg.MetaBytes = *metaMiB << 20
	cfg.ChunkBytes = *chunkMiB << 20
	cfg.DeltaBlockBytes = *deltaKiB << 10
	// Peers with no explicit weight are assumed symmetric with this
	// daemon's namespace; every member must compute identical weights
	// for routing to agree.
	for i := range cfg.Peers {
		if cfg.Peers[i].Weight == 0 {
			cfg.Peers[i].Weight = cfg.PMemBytes
		}
	}
	if *image != "" {
		if _, err := os.Stat(*image); err == nil {
			cfg.ImagePath = *image
		}
	}
	srv, err := portus.NewServer(cfg)
	if err != nil {
		log.Fatalf("portusd: %v", err)
	}
	fmt.Printf("portusd: node %s, control %s, fabric %s, pmem %d GiB (%s)\n",
		cfg.NodeName, srv.CtrlAddr, srv.FabricAddr, *pmemGiB, map[bool]string{true: "materialized", false: "virtual"}[cfg.Materialized])
	if len(cfg.Peers) > 0 {
		names := make([]string, len(cfg.Peers))
		for i, p := range cfg.Peers {
			names[i] = p.Name
		}
		fmt.Printf("portusd: storage group of %d (peers: %s), rf=%d, placement epoch %d\n",
			len(cfg.Peers)+1, strings.Join(names, ", "), srv.Daemon().Replicas(), srv.Daemon().Group().Epoch())
	}
	if srv.AdminAddr != "" {
		fmt.Printf("portusd: admin http://%s (/metrics, /debug/traces, /debug/events, /debug/pprof, /healthz)\n", srv.AdminAddr)
	}
	if cfg.ImagePath != "" {
		fmt.Printf("portusd: restored namespace from %s (%d models)\n",
			cfg.ImagePath, len(srv.Daemon().ModelNames()))
	}
	if *verbose {
		srv.Traces().OnComplete(logTrace)
	}

	done := make(chan os.Signal, 1)
	signal.Notify(done, syscall.SIGINT, syscall.SIGTERM)
	go srv.Serve()
	<-done

	if *image != "" {
		if err := srv.SaveImage(*image); err != nil {
			log.Fatalf("portusd: saving image: %v", err)
		}
		fmt.Printf("portusd: namespace image saved to %s\n", *image)
	}
	srv.Close()
}

// peerList parses repeated -peer flags into placement records.
type peerList []portus.PlacementNode

func (p *peerList) String() string {
	names := make([]string, len(*p))
	for i, n := range *p {
		names[i] = n.Name
	}
	return strings.Join(names, ";")
}

func (p *peerList) Set(v string) error {
	parts := strings.Split(v, ",")
	if len(parts) < 3 || len(parts) > 4 {
		return fmt.Errorf("want NAME,CTRL_ADDR,FABRIC_ADDR[,WEIGHT_GIB], got %q", v)
	}
	n := portus.PlacementNode{Name: parts[0], CtrlAddr: parts[1], FabricAddr: parts[2]}
	if n.Name == "" {
		return fmt.Errorf("peer %q has no name", v)
	}
	if len(parts) == 4 {
		gib, err := strconv.ParseInt(parts[3], 10, 64)
		if err != nil || gib <= 0 {
			return fmt.Errorf("bad peer weight %q (want GiB > 0)", parts[3])
		}
		n.Weight = gib << 30
	}
	*p = append(*p, n)
	return nil
}

// logTrace prints the one-line per-operation summary behind -verbose,
// sourced from the completed trace rather than ad-hoc prints on the
// datapath.
func logTrace(tr *telemetry.Trace) {
	if tr.Err != "" {
		log.Printf("%s model=%s iter=%d error=%q", tr.Kind, tr.Model, tr.Iteration, tr.Err)
		return
	}
	stage := func(name string) string {
		if sp := tr.Root.Find(name); sp != nil {
			return metrics.FormatDuration(sp.Dur())
		}
		return "-"
	}
	switch tr.Kind {
	case "checkpoint":
		log.Printf("checkpoint model=%s iter=%d bytes=%s wait=%s pull=%s flush=%s total=%s",
			tr.Model, tr.Iteration, metrics.FormatBytes(tr.Bytes),
			stage("enqueue-wait"), stage("pull"), stage("flush"), metrics.FormatDuration(tr.Duration))
	default:
		log.Printf("%s model=%s iter=%d bytes=%s wait=%s push=%s total=%s",
			tr.Kind, tr.Model, tr.Iteration, metrics.FormatBytes(tr.Bytes),
			stage("enqueue-wait"), stage("push"), metrics.FormatDuration(tr.Duration))
	}
}
