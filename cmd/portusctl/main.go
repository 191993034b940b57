// Command portusctl manages DNN checkpoints on persistent memory
// (§IV-b). It works either offline against a namespace image or online
// against a running portusd.
//
// Offline (namespace image):
//
//	portusctl -image ns.img view
//	portusctl -image ns.img inspect MODEL         # print the MIndex record
//	portusctl -image ns.img dump MODEL out.ckpt   # export as a general container
//	portusctl -image ns.img repack                # compact and reclaim space
//
// Online (live daemon):
//
//	portusctl -addr 127.0.0.1:7470 list
//	portusctl -addr 127.0.0.1:7470 dump MODEL out.ckpt
//	portusctl -addr 127.0.0.1:7470 delete MODEL
//	portusctl -addr 127.0.0.1:7470 placement   # epoch, members, shard owners + replicas
//
// Observability (against portusd -admin):
//
//	portusctl -admin 127.0.0.1:7472 stats
//	portusctl -admin 127.0.0.1:7472 trace MODEL        # newest trace as a text waterfall
//	portusctl -admin 127.0.0.1:7472 trace MODEL -all   # every retained trace
//	portusctl -admin 127.0.0.1:7472 trace MODEL -json  # raw span trees
//	portusctl -admin 127.0.0.1:7472 trace 00000000000000a1   # by trace ID
//	portusctl -admin 127.0.0.1:7472 events             # flight recorder + slow transfers
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/portus-sys/portus/internal/index"
	"github.com/portus-sys/portus/internal/metrics"
	"github.com/portus-sys/portus/internal/placement"
	"github.com/portus-sys/portus/internal/pmem"
	"github.com/portus-sys/portus/internal/serialize"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/store"
	"github.com/portus-sys/portus/internal/telemetry"
	"github.com/portus-sys/portus/internal/wire"
)

func main() {
	var (
		image = flag.String("image", "", "namespace image path (offline mode)")
		addr  = flag.String("addr", "", "daemon control address (online mode)")
		admin = flag.String("admin", "", "daemon admin HTTP address (stats mode)")
	)
	flag.Parse()
	if err := run(*image, *addr, *admin, flag.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "portusctl: %v\n", err)
		os.Exit(1)
	}
}

func run(image, addr, admin string, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: portusctl [-image FILE | -addr HOST:PORT | -admin HOST:PORT] view|inspect|dump|repack|list|delete|placement|stats|trace|events ...")
	}
	switch {
	case image != "":
		return runOffline(image, args)
	case admin != "":
		return runAdmin(admin, args)
	case addr != "":
		return runOnline(addr, args)
	default:
		return fmt.Errorf("one of -image, -addr, or -admin is required")
	}
}

// runAdmin talks to the daemon's admin HTTP endpoint.
func runAdmin(admin string, args []string) error {
	switch args[0] {
	case "stats":
		resp, err := http.Get("http://" + admin + "/metrics")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("admin endpoint: HTTP %d", resp.StatusCode)
		}
		samples, err := telemetry.ParseText(resp.Body)
		if err != nil {
			return fmt.Errorf("parsing /metrics: %w", err)
		}
		renderStats(samples)
		return nil
	case "trace":
		return runTrace(admin, args[1:])
	case "events":
		return adminJSON(admin, "/debug/events")
	default:
		return fmt.Errorf("unknown admin command %q (want stats, trace, or events)", args[0])
	}
}

// adminJSON streams one admin endpoint's JSON document to stdout.
func adminJSON(admin, path string) error {
	resp, err := http.Get("http://" + admin + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("admin endpoint: HTTP %d", resp.StatusCode)
	}
	_, err = io.Copy(os.Stdout, resp.Body)
	return err
}

// runTrace fetches recent traces and renders them as text waterfalls
// (newest first), or raw JSON with -json. A trailing hex ID (or
// MODEL) filters server-side.
func runTrace(admin string, args []string) error {
	var (
		asJSON bool
		model  string
		id     string
		n      = 1
	)
	for _, a := range args {
		switch {
		case a == "-json" || a == "--json":
			asJSON = true
		case a == "-all" || a == "--all":
			n = -1
		case isHexID(a):
			id = a
		default:
			model = a
		}
	}
	q := ""
	if model != "" {
		q = "?model=" + url.QueryEscape(model)
	} else if id != "" {
		q = "?id=" + id
	}
	if asJSON {
		return adminJSON(admin, "/debug/traces"+q)
	}
	resp, err := http.Get("http://" + admin + "/debug/traces" + q)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("admin endpoint: HTTP %d", resp.StatusCode)
	}
	var traces []*telemetry.Trace
	if err := json.NewDecoder(resp.Body).Decode(&traces); err != nil {
		return fmt.Errorf("parsing /debug/traces: %w", err)
	}
	if len(traces) == 0 {
		fmt.Println("no matching traces")
		return nil
	}
	if n > 0 && len(traces) > n {
		traces = traces[:n]
	}
	for i, t := range traces {
		if i > 0 {
			fmt.Println()
		}
		telemetry.WriteWaterfall(os.Stdout, t)
	}
	return nil
}

// isHexID reports whether s looks like a 16-digit hex trace ID rather
// than a model name.
func isHexID(s string) bool {
	if len(s) != 16 {
		return false
	}
	for _, c := range s {
		if !strings.ContainsRune("0123456789abcdefABCDEF", c) {
			return false
		}
	}
	return true
}

// renderStats prints the daemon counters plus latency quantiles from
// the scraped histograms.
func renderStats(samples []telemetry.Sample) {
	value := func(name string) float64 {
		for _, s := range samples {
			if s.Name == name && len(s.Labels) == 0 {
				return s.Value
			}
		}
		return 0
	}
	fmt.Println("DAEMON")
	rows := []struct{ label, name string }{
		{"registered models", "portus_daemon_registered_total"},
		{"checkpoints", "portus_daemon_checkpoints_total"},
		{"restores", "portus_daemon_restores_total"},
		{"errors", "portus_daemon_errors_total"},
		{"queue depth", "portus_daemon_queue_depth"},
	}
	for _, r := range rows {
		fmt.Printf("  %-22s %12.0f\n", r.label, value(r.name))
	}
	fmt.Printf("  %-22s %12s\n", "bytes pulled", metrics.FormatBytes(int64(value("portus_daemon_bytes_pulled_total"))))
	fmt.Printf("  %-22s %12s\n", "bytes pushed", metrics.FormatBytes(int64(value("portus_daemon_bytes_pushed_total"))))
	for _, r := range []struct{ label, name string }{
		{"pull time (cum)", "portus_daemon_pull_seconds_total"},
		{"flush time (cum)", "portus_daemon_flush_seconds_total"},
		{"push time (cum)", "portus_daemon_push_seconds_total"},
	} {
		fmt.Printf("  %-22s %12s\n", r.label, metrics.FormatDuration(secs(value(r.name))))
	}

	fmt.Println("\nLATENCY (from histograms)")
	fmt.Printf("  %-34s %10s %10s %10s %8s\n", "HISTOGRAM", "p50", "p99", "mean", "count")
	hists := histogramNames(samples)
	for _, name := range hists {
		p50, _ := telemetry.HistogramQuantile(samples, name, 0.50)
		p99, ok := telemetry.HistogramQuantile(samples, name, 0.99)
		if !ok {
			continue
		}
		count := value(name + "_count")
		mean := 0.0
		if count > 0 {
			mean = value(name+"_sum") / count
		}
		fmt.Printf("  %-34s %10s %10s %10s %8.0f\n",
			strings.TrimPrefix(name, "portus_"),
			metrics.FormatDuration(secs(p50)), metrics.FormatDuration(secs(p99)),
			metrics.FormatDuration(secs(mean)), count)
	}

	fmt.Println("\nPMEM")
	fmt.Printf("  %-22s %12.0f\n", "flush ops", value("portus_pmem_flush_ops_total"))
	fmt.Printf("  %-22s %12s\n", "flush bytes", metrics.FormatBytes(int64(value("portus_pmem_flush_bytes_total"))))

	fmt.Println("\nSTORE")
	capacity := value("portus_store_capacity_bytes")
	for _, r := range []struct{ label, name string }{
		{"capacity", "portus_store_capacity_bytes"},
		{"live bytes", "portus_store_live_bytes"},
		{"fragmented bytes", "portus_store_frag_bytes"},
		{"garbage bytes", "portus_store_garbage_bytes"},
	} {
		v := value(r.name)
		pct := ""
		if capacity > 0 && r.name != "portus_store_capacity_bytes" {
			pct = fmt.Sprintf(" (%4.1f%%)", 100*v/capacity)
		}
		fmt.Printf("  %-22s %12s%s\n", r.label, metrics.FormatBytes(int64(v)), pct)
	}
	fmt.Printf("  %-22s %12.0f\n", "repack runs", value("portus_store_repack_runs_total"))
	fmt.Printf("  %-22s %12s\n", "repack bytes moved", metrics.FormatBytes(int64(value("portus_store_repack_moved_bytes_total"))))
	fmt.Printf("  %-22s %12.0f\n", "no-space replies", value("portus_store_nospace_replies_total"))

	fmt.Println("\nDELTA")
	fmt.Printf("  %-22s %11.1f%%\n", "last dirty ratio", 100*value("portus_delta_dirty_ratio"))
	fmt.Printf("  %-22s %12s\n", "bytes saved", metrics.FormatBytes(int64(value("portus_delta_bytes_saved_total"))))
	fmt.Printf("  %-22s %12.0f\n", "full fallbacks", value("portus_delta_full_fallbacks_total"))
}

// histogramNames finds the unlabeled histogram families in a scrape.
func histogramNames(samples []telemetry.Sample) []string {
	seen := map[string]bool{}
	for _, s := range samples {
		if strings.HasSuffix(s.Name, "_bucket") && len(s.Labels) == 1 { // only le
			seen[strings.TrimSuffix(s.Name, "_bucket")] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func secs(v float64) time.Duration { return time.Duration(v * float64(time.Second)) }

// runOffline operates on a namespace image directly, exactly as the
// paper's tool reads a PMem device (§IV-b).
func runOffline(image string, args []string) error {
	pm, err := pmem.LoadImageFile("pmem0", image)
	if err != nil {
		return err
	}
	idx, err := index.Open(pm)
	if err != nil {
		return err
	}
	switch args[0] {
	case "view":
		return view(idx)
	case "dump":
		if len(args) != 3 {
			return fmt.Errorf("usage: portusctl -image FILE dump MODEL OUT")
		}
		return dump(pm, idx, args[1], args[2])
	case "inspect":
		if len(args) != 2 {
			return fmt.Errorf("usage: portusctl -image FILE inspect MODEL")
		}
		return inspect(idx, args[1])
	case "repack":
		rep, err := store.Offline(pm, idx)
		if err != nil {
			return err
		}
		fmt.Println(rep)
		if err := pm.SaveImageFile(image); err != nil {
			return fmt.Errorf("saving repacked image: %w", err)
		}
		return nil
	default:
		return fmt.Errorf("unknown offline command %q", args[0])
	}
}

// inspect prints a model's MIndex record in the paper's notation
// (§III-D1's BERT example).
func inspect(store *index.Store, model string) error {
	m, err := store.Lookup(model)
	if err != nil {
		return err
	}
	fmt.Printf("MIndex for %s @ info_offset=0x%x:\n", m.Name, m.InfoOff())
	fmt.Printf("{ layers=%d,\n", len(m.Tensors))
	for i, tm := range m.Tensors {
		shape := ""
		for d, dim := range tm.Dims {
			if d > 0 {
				shape += ", "
			}
			shape += fmt.Sprint(dim)
		}
		fmt.Printf("  tensor%d: (name=%s, dtype=%s, shape=(%s), size=%d, paddr=[0x%x, 0x%x]),\n",
			i+1, tm.Name, tm.DType, shape, tm.Size, m.PAddr[i][0], m.PAddr[i][1])
	}
	for v := 0; v < 2; v++ {
		h := m.VersionHeader(v)
		fmt.Printf("  version%d: state=%s iteration=%d\n", v, index.StateName(h.State), h.Iteration)
	}
	fmt.Println("}")
	return nil
}

// view lists every model's index state from the raw image.
func view(store *index.Store) error {
	models, err := store.Models()
	if err != nil {
		return err
	}
	fmt.Printf("%-40s %8s %10s %-22s %-22s\n", "MODEL", "TENSORS", "SIZE", "SLOT0", "SLOT1")
	for _, m := range models {
		slotDesc := func(v int) string {
			h := m.VersionHeader(v)
			if h.State == index.StateEmpty {
				return "empty"
			}
			return fmt.Sprintf("%s iter=%d", index.StateName(h.State), h.Iteration)
		}
		fmt.Printf("%-40s %8d %10s %-22s %-22s\n",
			m.Name, len(m.Tensors), metrics.FormatBytes(m.TotalSize()), slotDesc(0), slotDesc(1))
	}
	alloc := store.Allocator()
	fmt.Printf("\n%d models; data zone: %s in use, %s free\n",
		len(models), metrics.FormatBytes(alloc.InUse()), metrics.FormatBytes(alloc.FreeBytes()))
	return nil
}

// dump exports a model's newest complete version as a torch.save-style
// container — the "easy sharing" path of §IV-b.
func dump(pm *pmem.Device, store *index.Store, model, out string) error {
	m, err := store.Lookup(model)
	if err != nil {
		return err
	}
	slot, v, ok := m.LatestDone()
	if !ok {
		return fmt.Errorf("model %q has no complete checkpoint version", model)
	}
	ckpt := &serialize.Checkpoint{Model: m.Name, Iteration: v.Iteration}
	for i, tm := range m.Tensors {
		ext := m.TensorData(i, slot)
		blob := serialize.Blob{Meta: tm}
		if pm.Materialized() {
			blob.Data = pm.Data().Bytes(ext.Off, ext.Size)
		} else {
			blob.Virtual = true
			blob.Stamp = pm.Data().StampOf(ext.Off, ext.Size)
		}
		ckpt.Tensors = append(ckpt.Tensors, blob)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := serialize.Encode(f, ckpt); err != nil {
		return err
	}
	fmt.Printf("dumped %s iteration %d (%s payload) to %s\n",
		m.Name, v.Iteration, metrics.FormatBytes(m.TotalSize()), out)
	return nil
}

// runOnline talks to a live daemon over the control protocol.
func runOnline(addr string, args []string) error {
	sock, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer sock.Close()
	conn := wire.NewNetConn(sock)
	env := sim.NewRealEnv()
	switch args[0] {
	case "list":
		resp, err := wire.Call(env, conn, &wire.Msg{Type: wire.TList}, wire.TListResp)
		if err != nil {
			return err
		}
		// Sharded-tier daemons stamp each model with the answering node
		// and its placement owner; show the ownership columns when
		// present.
		sharded := false
		for _, mi := range resp.Models {
			if mi.Node != "" {
				sharded = true
				break
			}
		}
		if sharded {
			fmt.Printf("%-40s %8s %10s %-8s %-8s %10s %-10s %-10s\n", "MODEL", "TENSORS", "SIZE", "SLOT0", "SLOT1", "LATEST", "NODE", "OWNER")
		} else {
			fmt.Printf("%-40s %8s %10s %-8s %-8s %10s\n", "MODEL", "TENSORS", "SIZE", "SLOT0", "SLOT1", "LATEST")
		}
		for _, mi := range resp.Models {
			latest := "-"
			if mi.HasDone {
				latest = fmt.Sprint(mi.LatestIter)
			}
			if sharded {
				fmt.Printf("%-40s %8d %10s %-8s %-8s %10s %-10s %-10s\n",
					mi.Name, mi.Tensors, metrics.FormatBytes(mi.Bytes), mi.Slot0, mi.Slot1, latest, mi.Node, mi.Owner)
			} else {
				fmt.Printf("%-40s %8d %10s %-8s %-8s %10s\n",
					mi.Name, mi.Tensors, metrics.FormatBytes(mi.Bytes), mi.Slot0, mi.Slot1, latest)
			}
		}
		return nil
	case "dump":
		if len(args) != 3 {
			return fmt.Errorf("usage: portusctl -addr HOST:PORT dump MODEL OUT")
		}
		resp, err := wire.Call(env, conn, &wire.Msg{Type: wire.TDump, Model: args[1]}, wire.TDumpResp)
		if err != nil {
			// The typed code distinguishes "nothing committed yet" from
			// real failures without matching the error string.
			if resp != nil && resp.Code == wire.ErrCodeNoCheckpoint {
				return fmt.Errorf("model %q has no committed checkpoint to archive", args[1])
			}
			return err
		}
		if err := os.WriteFile(args[2], resp.Payload, 0o644); err != nil {
			return err
		}
		fmt.Printf("archived %s iteration %d (%s) to %s\n",
			args[1], resp.Iteration, metrics.FormatBytes(int64(len(resp.Payload))), args[2])
		return nil
	case "delete":
		if len(args) != 2 {
			return fmt.Errorf("usage: portusctl -addr HOST:PORT delete MODEL")
		}
		if _, err := wire.Call(env, conn, &wire.Msg{Type: wire.TDelete, Model: args[1]}, wire.TDeleteOK); err != nil {
			return err
		}
		fmt.Printf("deleted %s\n", args[1])
		return nil
	case "repack":
		// Online repack: the daemon runs one pass through its storage
		// engine, quiescing each model via the scheduler's maintenance
		// class while tenants keep checkpointing.
		resp, err := wire.Call(env, conn, &wire.Msg{Type: wire.TRepack}, wire.TRepackResp)
		if err != nil {
			return err
		}
		var rep store.PassReport
		if err := json.Unmarshal(resp.Payload, &rep); err != nil {
			return fmt.Errorf("parsing repack report: %w", err)
		}
		fmt.Println(rep)
		return nil
	case "placement":
		return placementCmd(env, conn)
	default:
		return fmt.Errorf("unknown online command %q", args[0])
	}
}

// placementCmd renders the storage group's routing state: epoch,
// members with capacities and addresses, the replication factor, and —
// per shard the answering daemon knows — the primary owner and replica
// assignments the rendezvous hash produces at this epoch.
func placementCmd(env *sim.RealEnv, conn wire.Conn) error {
	resp, err := wire.Call(env, conn, &wire.Msg{Type: wire.TPlacement}, wire.TPlacementResp)
	if err != nil {
		return err
	}
	rf := resp.Replicas
	if rf < 1 {
		rf = 1
	}
	fmt.Printf("placement epoch %d, %d member(s), replication factor %d\n\n", resp.Epoch, len(resp.Placement), rf)
	fmt.Printf("%-12s %10s %-22s %-22s\n", "NODE", "CAPACITY", "CTRL", "FABRIC")
	nodes := make([]placement.Node, len(resp.Placement))
	for i, p := range resp.Placement {
		nodes[i] = placement.Node{Name: p.Node, Weight: p.Weight, CtrlAddr: p.CtrlAddr, FabricAddr: p.FabricAddr}
		dash := func(s string) string {
			if s == "" {
				return "-"
			}
			return s
		}
		fmt.Printf("%-12s %10s %-22s %-22s\n",
			p.Node, metrics.FormatBytes(p.Weight), dash(p.CtrlAddr), dash(p.FabricAddr))
	}
	pmap, err := placement.NewAtEpoch(resp.Epoch, nodes...)
	if err != nil {
		return fmt.Errorf("rebuilding placement table: %w", err)
	}
	list, err := wire.Call(env, conn, &wire.Msg{Type: wire.TList}, wire.TListResp)
	if err != nil {
		return err
	}
	if len(list.Models) == 0 {
		fmt.Println("\nno shards registered on this daemon")
		return nil
	}
	fmt.Printf("\n%-40s %-12s %s\n", "SHARD", "PRIMARY", "REPLICAS")
	for _, mi := range list.Models {
		owners := pmap.Owners(mi.Name, rf)
		primary, reps := "-", "-"
		if len(owners) > 0 {
			primary = owners[0]
		}
		if len(owners) > 1 {
			reps = strings.Join(owners[1:], ", ")
		}
		fmt.Printf("%-40s %-12s %s\n", mi.Name, primary, reps)
	}
	return nil
}
