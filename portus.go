// Package portus is an open reproduction of "Portus: Efficient DNN
// Checkpointing to Persistent Memory with Zero-Copy" (ICDCS 2024): a
// checkpointing system that moves DNN model state between GPU memory and
// persistent memory with one-sided RDMA — no serialization, no
// intermediate copies, no kernel crossings — behind a three-level
// persistent index with double-mapped version slots for crash
// consistency. The two slots are delta-aware: each committed version
// can carry a persisted block-digest table, so the next checkpoint
// pulls only the blocks that changed and copy-forwards the rest from
// the previous slot locally in PMem (full pulls remain the automatic
// fallback whenever a trusted table is missing).
//
// Because the paper's hardware (GPUDirect-capable GPUs, Intel Optane DC
// PMem, InfiniBand RNICs) has no Go ecosystem, the substrates are
// simulated but real: devices hold actual content (bytes or content
// fingerprints), the RDMA fabric has two interchangeable
// implementations (an in-process virtual-time fabric for deterministic
// experiments and a TCP soft-RDMA fabric for genuinely distributed
// deployments), and the persistent-memory device enforces
// flush-or-lose crash semantics.
//
// Two entry points:
//
//   - Server and Job run the system over real TCP sockets — the
//     portusd / portus-train / portusctl executables are thin wrappers.
//   - Testbed wires the paper's evaluation cluster under the
//     discrete-event engine for deterministic experiments; package-level
//     aliases re-export the model zoo, Megatron partitioning, and the
//     training-loop simulator.
package portus

import (
	"fmt"
	"net"
	"net/http"
	"slices"
	"time"

	"github.com/portus-sys/portus/internal/client"
	"github.com/portus-sys/portus/internal/cluster"
	"github.com/portus-sys/portus/internal/daemon"
	"github.com/portus-sys/portus/internal/gpu"
	"github.com/portus-sys/portus/internal/index"
	"github.com/portus-sys/portus/internal/model"
	"github.com/portus-sys/portus/internal/parallel"
	"github.com/portus-sys/portus/internal/placement"
	"github.com/portus-sys/portus/internal/pmem"
	"github.com/portus-sys/portus/internal/rdma"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/telemetry"
	"github.com/portus-sys/portus/internal/train"
	"github.com/portus-sys/portus/internal/wire"
)

// Env is the execution environment: virtual time under the simulation
// engine, wall-clock time otherwise.
type Env = sim.Env

// NewRealEnv returns the wall-clock environment used by TCP deployments.
func NewRealEnv() *sim.RealEnv { return sim.NewRealEnv() }

// NewSimulation returns a fresh discrete-event engine. Spawn processes
// with Engine.Go and drive them with Engine.Run.
func NewSimulation() *sim.Engine { return sim.NewEngine() }

// Model-zoo re-exports.
type (
	// Spec describes one trainable model.
	Spec = model.Spec
	// TensorMeta describes one tensor.
	TensorMeta = index.TensorMeta
	// Shard is one Megatron partition of a model.
	Shard = parallel.Shard
)

// Zoo returns the full 76-model evaluation set.
func Zoo() []Spec { return model.Zoo() }

// TableII returns the paper's seven representative models.
func TableII() []Spec { return model.TableII() }

// GPTFamily returns GPT at 1.5B, 5B, 10B, and 22.4B parameters.
func GPTFamily() []Spec { return model.GPTFamily() }

// GPT synthesizes a Megatron-style GPT with the given transformer
// geometry — the knob for right-sizing a model to a test or testbed.
func GPT(name string, layers int, hidden, vocab int64, iterTime time.Duration) Spec {
	return model.GPT(name, layers, hidden, vocab, iterTime)
}

// ModelByName resolves a zoo or GPT model by name.
func ModelByName(name string) (Spec, error) { return model.ByName(name) }

// Partition splits a model Megatron-style over tensor-parallel ranks and
// pipeline stages.
func Partition(spec Spec, tpSize, ppSize int) ([]Shard, error) {
	return parallel.Partition(spec, tpSize, ppSize)
}

// Training-loop re-exports.
type (
	// Checkpointer is the policy interface the training loop drives.
	Checkpointer = train.Checkpointer
	// TrainConfig configures one training run.
	TrainConfig = train.Config
	// TrainResult summarizes a run.
	TrainResult = train.Result
)

// Train runs a simulated training loop under env.
func Train(env Env, cfg TrainConfig) (TrainResult, error) { return train.Run(env, cfg) }

// NewFleet groups per-shard checkpointers into one model-parallel
// policy.
func NewFleet(label string, members []Checkpointer) Checkpointer {
	return train.NewFleet(label, members)
}

// PlacementNode re-exports one storage-tier member record for group
// configuration (name, control/fabric addresses, placement weight).
type PlacementNode = placement.Node

// ServerConfig sizes a TCP-mode Portus server: where it listens, what
// namespace it serves, and which storage group it belongs to. Datapath,
// scheduler, and healing knobs keep their daemon defaults; experiments
// reach them through NewTestbed's tune functions.
type ServerConfig struct {
	// NodeName is this server's storage-node identity within a group
	// (default "storage" — the classic single-node deployment).
	NodeName string
	// Peers lists the other members of the storage group (this server
	// is added automatically). Leave empty for a single-node tier. All
	// members must agree on the full list for routing to be consistent.
	Peers []PlacementNode
	// Replicas is the group's replication factor: this daemon accepts a
	// shard whenever it is one of the shard's top-Replicas rendezvous
	// owners, and clients fan each checkpoint out to all of them. All
	// members must agree. 0 or 1 means unreplicated.
	Replicas int
	// PMemBytes is the devdax data-zone capacity (default 4 GiB).
	PMemBytes int64
	// MetaBytes is the metadata-zone capacity (default 64 MiB).
	MetaBytes int64
	// Materialized stores real checkpoint bytes (true) or content
	// fingerprints (false). Default false.
	Materialized bool
	// CtrlAddr and FabricAddr bind the control and data listeners
	// (empty = ephemeral loopback ports).
	CtrlAddr   string
	FabricAddr string
	// AdminAddr, when set, binds an HTTP admin listener serving
	// /metrics (Prometheus text format), /debug/traces (JSON span
	// trees of recent checkpoints/restores), /debug/events (the
	// flight recorder and slow-transfer incidents), /debug/pprof, and
	// /healthz. Use ":0" for an ephemeral port (the bound address is
	// Server.AdminAddr).
	AdminAddr string
	// ImagePath, when set, loads an existing namespace image at startup
	// (SaveImage persists one).
	ImagePath string
	// SlowBudget arms the slow-transfer watchdog: any checkpoint or
	// restore exceeding this daemon-side duration is recorded as a
	// watchdog.slow event and captures its trace plus the
	// surrounding flight-recorder event window (served at
	// /debug/events). 0 disables the watchdog.
	SlowBudget time.Duration
	// DeltaEnabled accepts incremental checkpoints: when a client sends
	// a block-digest vector with DO_CHECKPOINT, only the dirty extents
	// cross the fabric and the clean blocks copy forward from the
	// previous version's slot locally in PMem. Checkpoints without a
	// trusted digest table (or whose delta would move more bytes than a
	// full pass) automatically fall back to full pulls.
	DeltaEnabled bool
	// DeltaBlockBytes, when nonzero, pins the digest block size this
	// daemon accepts; clients computing a different block size fall
	// back to full checkpoints. 0 accepts any client block size.
	DeltaBlockBytes int64
}

// Server is a running Portus storage server over TCP.
type Server struct {
	env     *sim.RealEnv
	fabric  *rdma.TCPFabric
	node    *rdma.Node
	pm      *pmem.Device
	d       *daemon.Daemon
	ln      net.Listener
	adminLn net.Listener

	// CtrlAddr and FabricAddr are the bound listener addresses.
	CtrlAddr   string
	FabricAddr string
	// AdminAddr is the bound admin HTTP address ("" when disabled).
	AdminAddr string
}

// NewServer builds and starts a server: PMem namespace (fresh or from an
// image), soft-RDMA agent, daemon worker pool, and control listener.
// Call Serve to start accepting clients.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.PMemBytes == 0 {
		cfg.PMemBytes = 4 << 30
	}
	if cfg.MetaBytes == 0 {
		cfg.MetaBytes = 64 << 20
	}
	env := sim.NewRealEnv()
	var pm *pmem.Device
	if cfg.ImagePath != "" {
		var err error
		pm, err = pmem.LoadImageFile("pmem0", cfg.ImagePath)
		if err != nil {
			return nil, fmt.Errorf("portus: loading namespace image: %w", err)
		}
	} else {
		pm = pmem.New(pmem.Config{
			Name:         "pmem0",
			DataSize:     cfg.PMemBytes,
			MetaSize:     cfg.MetaBytes,
			Materialized: cfg.Materialized,
			Mode:         pmem.Devdax,
		})
	}
	nodeName := cfg.NodeName
	if nodeName == "" {
		nodeName = "storage"
	}
	fabric := rdma.NewTCPFabric(env)
	node := rdma.NewNode(env, nodeName)
	fabricAddr, err := fabric.Serve(node, cfg.FabricAddr)
	if err != nil {
		return nil, fmt.Errorf("portus: starting fabric agent: %w", err)
	}
	// The control listener binds before the daemon starts so the group's
	// placement table can carry this member's real address.
	ctrlAddr := cfg.CtrlAddr
	if ctrlAddr == "" {
		ctrlAddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", ctrlAddr)
	if err != nil {
		fabric.Close()
		return nil, fmt.Errorf("portus: control listener: %w", err)
	}
	var group *placement.Map
	if len(cfg.Peers) > 0 {
		members := append([]placement.Node{{
			Name: nodeName, Weight: pm.DataSize(),
			CtrlAddr: ln.Addr().String(), FabricAddr: fabricAddr,
		}}, cfg.Peers...)
		group, err = placement.New(members...)
		if err != nil {
			ln.Close()
			fabric.Close()
			return nil, fmt.Errorf("portus: placement group: %w", err)
		}
	}
	d, err := daemon.New(env, daemon.Config{
		PMem: pm, RNode: node, Fabric: fabric,
		NodeName: nodeName, Group: group, Replicas: cfg.Replicas,
		SlowBudget:   cfg.SlowBudget,
		DeltaEnabled: cfg.DeltaEnabled, DeltaBlockBytes: cfg.DeltaBlockBytes,
	})
	if err != nil {
		ln.Close()
		fabric.Close()
		return nil, err
	}
	s := &Server{
		env: env, fabric: fabric, node: node, pm: pm, d: d, ln: ln,
		CtrlAddr: ln.Addr().String(), FabricAddr: fabricAddr,
	}
	if cfg.AdminAddr != "" {
		adminLn, err := net.Listen("tcp", cfg.AdminAddr)
		if err != nil {
			ln.Close()
			fabric.Close()
			return nil, fmt.Errorf("portus: admin listener: %w", err)
		}
		s.adminLn = adminLn
		s.AdminAddr = adminLn.Addr().String()
		telemetry.RegisterRuntimeMetrics(d.Telemetry())
		go func() {
			_ = http.Serve(adminLn, telemetry.AdminHandler(d.Telemetry(), d.Traces(), d.Events(), d.Watchdog()))
		}()
	}
	return s, nil
}

// Serve accepts client connections until Close. It blocks; run it on its
// own goroutine when embedding.
func (s *Server) Serve() { s.d.Serve(s.env, wire.NetListener{L: s.ln}) }

// Daemon exposes the underlying daemon (stats, store).
func (s *Server) Daemon() *daemon.Daemon { return s.d }

// Telemetry exposes the server's metrics registry (what /metrics
// serves).
func (s *Server) Telemetry() *telemetry.Registry { return s.d.Telemetry() }

// Traces exposes the ring of recently completed checkpoint/restore
// span trees (what /debug/traces serves).
func (s *Server) Traces() *telemetry.TraceRing { return s.d.Traces() }

// Events exposes the daemon's flight recorder (also served by the admin
// endpoint's /debug/events).
func (s *Server) Events() *telemetry.EventRing { return s.d.Events() }

// PMem exposes the namespace (for image persistence).
func (s *Server) PMem() *pmem.Device { return s.pm }

// SaveImage persists the namespace's durable state to path.
func (s *Server) SaveImage(path string) error { return s.pm.SaveImageFile(path) }

// Close halts the daemon (worker pool stopped, every control connection
// closed, so a connected Model's next call fails instead of hanging) and
// stops the listeners.
func (s *Server) Close() {
	s.d.Halt(s.env)
	s.ln.Close()
	if s.adminLn != nil {
		s.adminLn.Close()
	}
	s.fabric.Close()
}

// JobConfig connects a training job to a server.
type JobConfig struct {
	// ServerCtrlAddr and ServerFabricAddr are the server's two bound
	// addresses.
	ServerCtrlAddr   string
	ServerFabricAddr string
	// NodeName identifies this client on the fabric (default "client0").
	NodeName string
	// GPUMemBytes sizes the simulated GPU (default 4 GiB).
	GPUMemBytes int64
	// Materialized must match the server's setting.
	Materialized bool
	// DeltaBlockBytes, when nonzero, makes every checkpoint compute and
	// send per-block digests at this granularity, so a delta-enabled
	// server can run it incrementally (64 KiB is the standard choice).
	// 0 disables digests: every checkpoint is a full pull.
	DeltaBlockBytes int64
}

// Job is a training process connected to a Portus server.
type Job struct {
	env    *sim.RealEnv
	fabric *rdma.TCPFabric
	node   *rdma.Node
	gpu    *gpu.GPU
	cfg    JobConfig
}

// NewJob sets up the client side: a simulated GPU, a fabric agent, and
// the node identity.
func NewJob(cfg JobConfig) (*Job, error) {
	if cfg.NodeName == "" {
		cfg.NodeName = "client0"
	}
	if cfg.GPUMemBytes == 0 {
		cfg.GPUMemBytes = 4 << 30
	}
	env := sim.NewRealEnv()
	fabric := rdma.NewTCPFabric(env)
	node := rdma.NewNode(env, cfg.NodeName)
	if _, err := fabric.Serve(node, ""); err != nil {
		return nil, fmt.Errorf("portus: client fabric agent: %w", err)
	}
	fabric.AddPeer("storage", cfg.ServerFabricAddr)
	return &Job{
		env:    env,
		fabric: fabric,
		node:   node,
		gpu:    gpu.New(cfg.NodeName+"/gpu0", cfg.GPUMemBytes, cfg.Materialized),
		cfg:    cfg,
	}, nil
}

// Env returns the job's environment.
func (j *Job) Env() Env { return j.env }

// GPU returns the job's device.
func (j *Job) GPU() *gpu.GPU { return j.gpu }

// Close tears down the job's fabric agent.
func (j *Job) Close() { j.fabric.Close() }

// RegisterModel places spec's tensors on the job's GPU, fills
// iteration-0 weights, and registers the model with the server. The
// returned Model is ready to checkpoint.
func (j *Job) RegisterModel(spec Spec) (*Model, error) {
	placed, err := gpu.Place(j.gpu, spec)
	if err != nil {
		return nil, err
	}
	sock, err := net.Dial("tcp", j.cfg.ServerCtrlAddr)
	if err != nil {
		return nil, fmt.Errorf("portus: dialing server: %w", err)
	}
	fabricAddr := ""
	if addr, ok := j.fabricSelfAddr(); ok {
		fabricAddr = addr
	}
	c, err := client.RegisterOpts(j.env, wire.NewNetConn(sock), j.node, placed,
		client.Options{FabricAddr: fabricAddr, DeltaBlockBytes: j.cfg.DeltaBlockBytes})
	if err != nil {
		return nil, err
	}
	return &Model{placed: placed, c: c}, nil
}

// fabricSelfAddr looks up this job's agent address.
func (j *Job) fabricSelfAddr() (string, bool) {
	return j.fabric.PeerAddr(j.node.Name())
}

// Model is a registered model handle. Blocking methods take the calling
// process's Env: under the simulation engine every process has its own
// environment, and using another process's would corrupt scheduling.
type Model struct {
	placed *gpu.PlacedModel
	c      *client.Client
}

// Placed exposes tensor placement (for tests and weight updates).
func (m *Model) Placed() *gpu.PlacedModel { return m.placed }

// ApplyUpdate simulates one optimizer step: the GPU-resident weights
// become iteration's deterministic content.
func (m *Model) ApplyUpdate(iteration uint64) { m.placed.ApplyUpdate(iteration) }

// ApplySparseUpdate simulates one sparse optimizer step: roughly rate
// of the model's blockBytes-sized blocks take iteration's content and
// the rest keep their bytes — the workload shape incremental
// checkpointing exploits.
func (m *Model) ApplySparseUpdate(iteration uint64, blockBytes int64, rate float64) {
	m.placed.ApplySparseUpdate(iteration, blockBytes, rate)
}

// Checkpoint persists the current weights synchronously.
func (m *Model) Checkpoint(env Env, iteration uint64) error {
	return m.c.CheckpointSync(env, iteration)
}

// CheckpointAsync triggers a pull without waiting.
func (m *Model) CheckpointAsync(env Env, iteration uint64) (*client.Completion, error) {
	return m.c.CheckpointAsync(env, iteration)
}

// Restore writes the newest complete checkpoint back into GPU memory and
// returns its iteration.
func (m *Model) Restore(env Env) (uint64, error) { return m.c.Restore(env) }

// Reconnects reports how many control-plane reconnects this model's
// client has performed.
func (m *Model) Reconnects() int64 { return m.c.Reconnects() }

// SyncPolicy returns this model's synchronous checkpoint policy for the
// training loop.
func (m *Model) SyncPolicy() Checkpointer { return &client.Sync{C: m.c} }

// AsyncPolicy returns the asynchronous policy (Figure 9(d)).
func (m *Model) AsyncPolicy() Checkpointer { return &client.Async{C: m.c} }

// Close tears down the control connection.
func (m *Model) Close() error { return m.c.Close() }

// Testbed wires the paper's evaluation cluster under the simulation
// engine: compute nodes with GPUs, the PMem storage tier (one daemon
// per storage node, sharing one placement table), and the control
// network. Create one inside a simulation process (Engine.Go).
type Testbed struct {
	Cluster *cluster.Cluster
	// Daemons holds one running daemon per storage node, index-aligned
	// with Cluster.Storage.
	Daemons []*daemon.Daemon
	// Placement is the tier's shared routing table.
	Placement *placement.Map
	net       *wire.SimNet
	replicas  int
	tune      []func(*daemon.Config)
}

// TestbedConfig re-exports the cluster configuration.
type TestbedConfig = cluster.Config

// NewTestbed builds the simulated cluster plus a served daemon per
// storage node. Each daemon listens on its node's name ("storage0",
// ...) and all share one placement map keyed by PMem capacity. The
// daemons accept incremental checkpoints; clients opt in per model via
// ClientOptions.DeltaBlockBytes. Each tune function edits every
// member's daemon configuration just before the daemon is built — the
// hook for datapath tuning and per-node fault injection.
func NewTestbed(env Env, cfg TestbedConfig, tune ...func(*daemon.Config)) (*Testbed, error) {
	cl, err := cluster.New(env, cfg)
	if err != nil {
		return nil, err
	}
	members := make([]placement.Node, len(cl.Storage))
	for i, st := range cl.Storage {
		members[i] = placement.Node{Name: st.Name, Weight: st.PMem.DataSize()}
	}
	pmap, err := placement.New(members...)
	if err != nil {
		return nil, err
	}
	tb := &Testbed{Cluster: cl, Placement: pmap, net: wire.NewSimNet(), replicas: cfg.Replicas, tune: tune}
	for _, st := range cl.Storage {
		d, err := tb.startMember(env, st)
		if err != nil {
			return nil, err
		}
		tb.Daemons = append(tb.Daemons, d)
	}
	return tb, nil
}

// startMember builds storage node st's daemon on st.PMem and serves it
// on the node's name.
func (tb *Testbed) startMember(env Env, st *cluster.StorageNode) (*daemon.Daemon, error) {
	dcfg := daemon.Config{
		PMem: st.PMem, RNode: st.RNode, Fabric: tb.Cluster.Fabric,
		NodeName: st.Name, Group: tb.Placement, Replicas: tb.replicas,
		DeltaEnabled: true,
	}
	for _, f := range tb.tune {
		f(&dcfg)
	}
	d, err := daemon.New(env, dcfg)
	if err != nil {
		return nil, err
	}
	l, err := tb.net.Listen(env, st.Name)
	if err != nil {
		return nil, err
	}
	env.Go("portusd-"+st.Name, func(env Env) { d.Serve(env, l) })
	return d, nil
}

// ReplaceMember starts a fresh daemon for storage node i on the
// namespace pm — the replacement of a member that died (listener shut
// down through Net, daemon halted). The node first re-enters the
// placement table at pm's capacity, because a daemon validates its own
// membership at construction; a router's Join re-places shards onto it
// afterwards.
func (tb *Testbed) ReplaceMember(env Env, i int, pm *pmem.Device) (*daemon.Daemon, error) {
	st := tb.Cluster.Storage[i]
	st.PMem = pm
	nodes := slices.DeleteFunc(tb.Placement.Nodes(), func(n placement.Node) bool { return n.Name == st.Name })
	nodes = append(nodes, placement.Node{Name: st.Name, Weight: pm.DataSize()})
	if err := tb.Placement.Update(nodes); err != nil {
		return nil, err
	}
	d, err := tb.startMember(env, st)
	if err != nil {
		return nil, err
	}
	tb.Daemons[i] = d
	return d, nil
}

// PlaceModel puts spec on (node, gpu), registers it with its owning
// daemon (per the placement table), and returns the model handle.
func (tb *Testbed) PlaceModel(env Env, node, gpuIdx int, spec Spec) (*Model, error) {
	return tb.PlaceModelOpts(env, node, gpuIdx, spec, ClientOptions{})
}

// Conn re-exports the control-plane connection interface, so callers
// can supply reconnect dialers (and wrap connections for fault
// injection).
type Conn = wire.Conn

// ClientOptions re-exports the client registration options: a reconnect
// Dialer, retry budgets, request deadlines, and a telemetry registry.
type ClientOptions = client.Options

// Dial opens a control connection to the testbed's first daemon — the
// building block for ClientOptions.Dialer on single-node tiers.
func (tb *Testbed) Dial(env Env) (Conn, error) {
	return tb.net.Dial(env, tb.Cluster.Storage[0].Name)
}

// DialNode opens a control connection to a named storage daemon.
func (tb *Testbed) DialNode(env Env, node string) (Conn, error) {
	return tb.net.Dial(env, node)
}

// Net exposes the testbed's control network — fault harnesses use it
// to shut a node's listener down (wire.SimNet.Shutdown) and to bind a
// replacement daemon on the same name.
func (tb *Testbed) Net() *wire.SimNet { return tb.net }

// PlaceModelOpts is PlaceModel with explicit client options.
func (tb *Testbed) PlaceModelOpts(env Env, node, gpuIdx int, spec Spec, opts ClientOptions) (*Model, error) {
	placed, err := gpu.Place(tb.Cluster.GPU(node, gpuIdx), spec)
	if err != nil {
		return nil, err
	}
	return tb.Register(env, node, placed, opts)
}

// Register registers a model already placed on one of compute node
// `node`'s GPUs. When a Dialer is set it is used for the initial
// connection too, so every connection in the client's lifetime comes
// from the same source; by default the model's owning daemon (per the
// placement table) is dialed.
func (tb *Testbed) Register(env Env, node int, placed *gpu.PlacedModel, opts ClientOptions) (*Model, error) {
	dial := opts.Dialer
	if dial == nil {
		owner := tb.Placement.Owner(placed.Spec.Name)
		dial = func(env Env) (Conn, error) { return tb.net.Dial(env, owner) }
	}
	conn, err := dial(env)
	if err != nil {
		return nil, err
	}
	c, err := client.RegisterOpts(env, conn, tb.Cluster.Compute[node].RNode, placed, opts)
	if err != nil {
		return nil, err
	}
	return &Model{placed: placed, c: c}, nil
}

// Router creates a client-side shard router over the testbed's
// placement table, ready to register shards with their owning daemons.
func (tb *Testbed) Router(opts client.RouterOptions) *client.Router {
	return client.NewRouter(tb.Placement,
		func(env Env, node string) (Conn, error) { return tb.net.Dial(env, node) }, opts)
}

// ShardedModel is a Megatron-partitioned model checkpointed across the
// storage tier: each TP×PP shard lives on its own GPU and is owned by
// the storage daemon the placement table assigns it. Checkpoints fan
// out to all owning daemons concurrently and commit all-or-nothing via
// the group manifest; restores stripe back from every daemon at the
// manifest's group-committed iteration.
type ShardedModel struct {
	r      *client.Router
	placed []*gpu.PlacedModel
	shards []Shard
}

// RouterOptions re-exports the shard router's tuning knobs.
type RouterOptions = client.RouterOptions

// GroupCompletion re-exports the in-flight group checkpoint handle.
type GroupCompletion = client.GroupCompletion

// ShardError re-exports the typed partial-failure error naming the
// lagging shard of a group operation.
type ShardError = client.ShardError

// Typed client sentinels, matchable with errors.Is through every
// wrapping layer (Model.Restore, ShardedModel.Restore, ShardError).
var (
	// ErrNoCheckpoint: a restore found no committed checkpoint (fresh
	// model, or no group-committed iteration).
	ErrNoCheckpoint = client.ErrNoCheckpoint
	// ErrCorruptReplica: a checkpoint copy failed its CRC integrity
	// check at restore.
	ErrCorruptReplica = client.ErrCorruptReplica
	// ErrUnreachable: the daemon's control plane is gone (dial failure,
	// dead connection, request timeout).
	ErrUnreachable = client.ErrUnreachable
)

// PlaceSharded partitions spec over tpSize×ppSize ranks, places the
// shards round-robin across the testbed's compute GPUs, and registers
// each with its owning storage daemon.
func (tb *Testbed) PlaceSharded(env Env, spec Spec, tpSize, ppSize int, opts RouterOptions) (*ShardedModel, error) {
	shards, err := parallel.Partition(spec, tpSize, ppSize)
	if err != nil {
		return nil, err
	}
	gpusPerNode := len(tb.Cluster.Compute[0].GPUs)
	placements, err := parallel.Place(shards, len(tb.Cluster.Compute), gpusPerNode)
	if err != nil {
		return nil, err
	}
	if opts.Group == "" {
		opts.Group = spec.Name
	}
	r := tb.Router(opts)
	sm := &ShardedModel{r: r, shards: shards}
	for i, pl := range placements {
		placed, err := gpu.Place(tb.Cluster.GPU(pl.Node, pl.GPU), shards[i].Spec)
		if err != nil {
			return nil, err
		}
		if _, err := r.Register(env, tb.Cluster.Compute[pl.Node].RNode, placed); err != nil {
			return nil, err
		}
		sm.placed = append(sm.placed, placed)
	}
	return sm, nil
}

// Shards exposes the Megatron partition.
func (sm *ShardedModel) Shards() []Shard { return sm.shards }

// Placed exposes shard i's GPU placement (weight updates, verification).
func (sm *ShardedModel) Placed(i int) *gpu.PlacedModel { return sm.placed[i] }

// Router exposes the underlying shard router (manifest, members,
// telemetry).
func (sm *ShardedModel) Router() *client.Router { return sm.r }

// ApplyUpdate steps every shard's weights to iteration's content.
func (sm *ShardedModel) ApplyUpdate(iteration uint64) {
	for _, p := range sm.placed {
		p.ApplyUpdate(iteration)
	}
}

// Checkpoint persists all shards and blocks until every owning daemon
// commits — only then is the iteration group-committed.
func (sm *ShardedModel) Checkpoint(env Env, iteration uint64) error {
	return sm.r.CheckpointSync(env, iteration)
}

// CheckpointAsync fans the checkpoint out without waiting.
func (sm *ShardedModel) CheckpointAsync(env Env, iteration uint64) (*GroupCompletion, error) {
	return sm.r.CheckpointAsync(env, iteration)
}

// Restore stripes the group-committed iteration back into every
// shard's GPU memory and returns it.
func (sm *ShardedModel) Restore(env Env) (uint64, error) { return sm.r.Restore(env) }

// Committed returns the manifest's group-committed iteration (0 if
// none).
func (sm *ShardedModel) Committed() uint64 { return sm.r.Manifest().Committed() }

// Close tears down every shard's control connection.
func (sm *ShardedModel) Close() error { return sm.r.Close() }
