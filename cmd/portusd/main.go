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

// options is portusd's command line: the server configuration plus what
// main itself acts on.
type options struct {
	cfg              portus.ServerConfig
	pmemGiB, metaMiB int64
	image            string
	verbose          bool
}

// newFlags binds portusd's flags to o.
func newFlags(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("portusd", flag.ExitOnError)
	cfg := &o.cfg
	fs.Var((*peerList)(&cfg.Peers), "peer", "storage-group member as NAME,CTRL_ADDR,FABRIC_ADDR[,WEIGHT_GIB]; repeat per peer (this daemon is added automatically)")
	fs.StringVar(&cfg.CtrlAddr, "ctrl", "127.0.0.1:7470", "control-plane listen address")
	fs.StringVar(&cfg.FabricAddr, "fabric", "127.0.0.1:7471", "soft-RDMA agent listen address")
	fs.StringVar(&cfg.NodeName, "node-name", "storage", "this daemon's storage-node name within its group")
	fs.IntVar(&cfg.Replicas, "replicas", 1, "storage-group replication factor: shards are accepted on their top-N rendezvous owners and checkpoints fan out to all of them")
	fs.BoolVar(&cfg.Materialized, "materialized", false, "store real checkpoint bytes instead of content fingerprints")
	fs.StringVar(&cfg.AdminAddr, "admin", "", "admin HTTP listen address serving /metrics, /debug/traces, /debug/events, /debug/pprof, /healthz (empty = disabled)")
	fs.DurationVar(&cfg.SlowBudget, "slow-budget", 0, "slow-transfer watchdog budget: transfers slower than this are counted and their trace + event window captured at /debug/events (0 = disabled)")
	fs.Int64Var(&o.pmemGiB, "pmem-gib", 4, "devdax data-zone capacity in GiB")
	fs.Int64Var(&o.metaMiB, "meta-mib", 64, "metadata-zone capacity in MiB")
	fs.StringVar(&o.image, "image", "", "namespace image path: loaded at startup if present, saved at shutdown")
	fs.BoolVar(&o.verbose, "verbose", false, "log a one-line summary for every completed checkpoint and restore")
	return fs
}

func main() {
	var o options
	newFlags(&o).Parse(os.Args[1:])
	cfg := &o.cfg
	cfg.PMemBytes = o.pmemGiB << 30
	cfg.MetaBytes = o.metaMiB << 20
	// Incremental checkpoints are always accepted: a client that sends
	// block digests gets a delta pull, one that sends none a full one.
	cfg.DeltaEnabled = true
	// Peers with no explicit weight are assumed symmetric with this
	// daemon's namespace; every member must compute identical weights
	// for routing to agree.
	for i := range cfg.Peers {
		if cfg.Peers[i].Weight == 0 {
			cfg.Peers[i].Weight = cfg.PMemBytes
		}
	}
	if o.image != "" {
		if _, err := os.Stat(o.image); err == nil {
			cfg.ImagePath = o.image
		}
	}
	srv, err := portus.NewServer(*cfg)
	if err != nil {
		log.Fatalf("portusd: %v", err)
	}
	fmt.Printf("portusd: node %s, control %s, fabric %s, pmem %d GiB (%s)\n",
		cfg.NodeName, srv.CtrlAddr, srv.FabricAddr, o.pmemGiB, map[bool]string{true: "materialized", false: "virtual"}[cfg.Materialized])
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
	if o.verbose {
		srv.Traces().OnComplete(logTrace)
	}

	done := make(chan os.Signal, 1)
	signal.Notify(done, syscall.SIGINT, syscall.SIGTERM)
	go srv.Serve()
	<-done

	if o.image != "" {
		if err := srv.SaveImage(o.image); err != nil {
			log.Fatalf("portusd: saving image: %v", err)
		}
		fmt.Printf("portusd: namespace image saved to %s\n", o.image)
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
