// Package perfmodel centralizes every performance-model constant used by
// the simulated substrates. Constants that the paper states explicitly
// are quoted from it (section references in comments); the rest are
// calibrated so that the paper's reported breakdowns and speedups hold,
// as documented in DESIGN.md §2.
//
// All bandwidths are bytes per second; all latencies are time.Duration.
package perfmodel

import "time"

// Byte-size units.
const (
	KiB = int64(1) << 10
	MiB = int64(1) << 20
	GiB = int64(1) << 30
)

// GB is a decimal gigabyte per second base for bandwidth constants.
const GB = 1e9

// Network fabric (Mellanox ConnectX-5/6, 100 Gbps InfiniBand; §V-A).
const (
	// NICBandwidth is the effective peak of a 100 Gbps link after
	// protocol overheads (~92% of 12.5 GB/s).
	NICBandwidth = 11.5 * GB
	// RDMALatency is the one-sided verb latency. Calibrated so that
	// transfers ≥512 KiB reach ≥95% of peak bandwidth, which is the
	// saturation point the paper reports in §V-B.
	RDMALatency = 2200 * time.Nanosecond
	// TwoSidedLatency is the two-sided SEND/RECV rendezvous latency
	// (RPC-over-RDMA, as used by BeeGFS; §V-D).
	TwoSidedLatency = 5500 * time.Nanosecond
	// TCPLatency is the control-plane round-trip cost over IPoIB.
	TCPLatency = 30 * time.Microsecond
)

// GPU device (NVIDIA V100 / A40 behind PCIe 4.0; §V-B).
const (
	// GPUBARReadBW is the peak bandwidth for remote reads of GPU memory.
	// The paper measures 5.8 GB/s and attributes the cap to the base
	// address register (BAR) unit, which disables prefetching (§V-B).
	GPUBARReadBW = 5.8 * GB
	// GPUWriteBW is the peak for remote writes into GPU memory; the
	// paper observes BAR does not affect writes (§V-B, Fig. 10(d)).
	GPUWriteBW = 12.0 * GB
	// CuMemcpyBW is the effective device-to-host copy bandwidth seen by
	// the baseline checkpoint path (calibrated from Table I: the
	// GPU→main-memory stage is 15.5% of the traditional checkpoint).
	CuMemcpyBW = 4.36 * GB
	// PCIeNodeBW is the aggregate host PCIe bandwidth shared by all GPUs
	// on one node for device-to-host staging copies.
	PCIeNodeBW = 16.0 * GB
)

// Client main memory (DDR4-3200; §V-A).
const (
	// DRAMRemoteReadBW is the peak for one-sided RDMA reads of client
	// DRAM. The paper states GPU BAR reads are 30% slower than DRAM
	// reads, i.e. DRAM reads peak at 5.8/0.7 ≈ 8.3 GB/s (§V-B).
	DRAMRemoteReadBW = 8.3 * GB
	// DRAMRemoteWriteBW is the peak for one-sided RDMA writes into
	// client DRAM (NIC-limited).
	DRAMRemoteWriteBW = 11.5 * GB
)

// Persistent memory (6×256 GB Intel Optane DC, 3 DIMMs interleaved per
// namespace; §V-A).
const (
	// PMemWriteBW is the aggregate sustained write bandwidth of the
	// devdax namespace (≈2 GB/s per interleaved DIMM). This becomes the
	// bottleneck for highly concurrent multi-GPU checkpoints (Fig. 14:
	// 89.6 GB in ~15 s ⇒ ≈6 GB/s).
	PMemWriteBW = 6.2 * GB
	// PMemReadBW is the aggregate sustained read bandwidth.
	PMemReadBW = 18.0 * GB
	// PMemLatency is the media write latency (negligible next to RDMA).
	PMemLatency = 300 * time.Nanosecond
	// ServerDRAMBW is the storage server's DRAM bandwidth (never the
	// bottleneck; the paper notes DRAM vs PMem does not change Portus
	// checkpoint performance, §V-B).
	ServerDRAMBW = 35.0 * GB
)

// Baseline serialization (torch.save-style pickling; Table I: 41.7% of
// the traditional checkpoint time).
const (
	// SerializeBW is the single-stream serialization throughput.
	SerializeBW = 1.62 * GB
	// DeserializeBW is the single-stream deserialization throughput
	// during restore.
	DeserializeBW = 3.2 * GB
	// SerializerNodeBW is the aggregate serialization throughput of one
	// compute node when many ranks serialize concurrently (CPU and
	// memory-bandwidth bound).
	SerializerNodeBW = 3.2 * GB
	// SerializePerTensor is the per-tensor header/metadata encode cost.
	SerializePerTensor = 4 * time.Microsecond
)

// BeeGFS-on-PMem shared filesystem baseline (§II-B, §V).
const (
	// BeeGFSTransferBW is the effective single-flow client→server
	// throughput of the two-sided RPC-over-RDMA protocol (calibrated
	// jointly with the metadata model so the transmission stage lands at
	// Table I's 30.0% of the traditional BERT checkpoint).
	BeeGFSTransferBW = 3.06 * GB
	// BeeGFSServerBW is the daemon's aggregate ingest capacity.
	BeeGFSServerBW = 3.2 * GB
	// BeeGFSContention is the synchronization-contention coefficient of
	// the daemon: effective capacity = BeeGFSServerBW/(1+α(n−1)) with n
	// concurrent writers. Calibrated so 16 concurrent Megatron ranks
	// writing 89.6 GB take >120 s (Fig. 14) while a single writer is
	// unaffected.
	BeeGFSContention = 0.185
	// BeeGFSDAXWriteBW is the server-side DAX persist stage (Table I:
	// 12.8% of the traditional checkpoint).
	BeeGFSDAXWriteBW = 5.27 * GB
	// BeeGFSMetadataBase is the fixed per-checkpoint-file metadata cost
	// (path resolution, permission checks, striping setup).
	BeeGFSMetadataBase = 10 * time.Millisecond
	// BeeGFSMetadataPerTensor is the per-layer metadata cost of the
	// traditional path (chunked small writes through the striping
	// layer); the paper blames metadata operations for ResNet50's
	// worst-case 9.23× gap (§V-C1) — ResNet50 has many small tensors.
	BeeGFSMetadataPerTensor = 560 * time.Microsecond
	// BeeGFSKernelCrossing is the cost of one user/kernel crossing on
	// the client or server VFS path.
	BeeGFSKernelCrossing = 4 * time.Microsecond
)

// Local ext4 on NVMe SSD baseline (§V-A: PCIe 4.0 NVMe, max sequential
// write 2.7 GB/s per the paper's §V-B; effective throughput is lower due
// to the block layer, journaling, and page-cache copies — Fig. 13: 53.7%
// of local checkpoint time is spent interacting with block devices).
const (
	// NVMeWriteBW is the raw sequential write bandwidth.
	NVMeWriteBW = 2.7 * GB
	// NVMeReadBW is the raw sequential read bandwidth.
	NVMeReadBW = 3.5 * GB
	// Ext4EffectiveWriteBW is the end-to-end effective write throughput
	// including kernel crossings, journal, and page-cache copies.
	Ext4EffectiveWriteBW = 1.05 * GB
	// Ext4EffectiveReadBW is the effective read throughput (reads skip
	// the journal, and GPU-Direct Storage bypasses the page cache).
	Ext4EffectiveReadBW = 3.4 * GB
	// Ext4SyscallOverhead is the per-write-syscall cost.
	Ext4SyscallOverhead = 3 * time.Microsecond
	// Ext4WriteChunk is the syscall granularity of the baseline writer.
	Ext4WriteChunk = 1 * MiB
)

// Portus-specific costs.
const (
	// MRRegisterPerGiB is the cost of pinning and registering one GiB of
	// device memory as an RDMA memory region (nv_peer_mem page-table
	// setup). Paying it once per training job — instead of once per
	// checkpoint version — is why Portus pre-allocates the double-mapped
	// slots (§III-D2).
	MRRegisterPerGiB = 50 * time.Millisecond
	// QPConnectCost is queue-pair creation plus the connection
	// handshake.
	QPConnectCost = 8 * time.Millisecond
	// RDMAReadIssueCost is the per-verb posting + completion-polling
	// cost on the daemon for each one-sided READ (one per tensor).
	RDMAReadIssueCost = 6 * time.Microsecond
	// IndexInsertCost is the cost of creating one MIndex tensor record
	// and its PMem allocation at registration time.
	IndexInsertCost = 2 * time.Microsecond
	// FlushPerMiB is the CLWB+fence flush cost per MiB of TensorData.
	FlushPerMiB = 9 * time.Microsecond
	// DigestBW is the client-side throughput of computing block digests
	// over resident GPU tensors for incremental checkpointing (a
	// memory-bandwidth-bound xxHash/FNV pass fused with the optimizer's
	// last touch of the weights).
	DigestBW = 150 * GB
)

// PMemCopyTime models a local PMem-to-PMem copy of n bytes (the
// copy-forward stage of an incremental checkpoint): the media is read
// at PMemReadBW and written at PMemWriteBW, and the stages do not
// overlap within one span.
func PMemCopyTime(n int64) time.Duration {
	secs := float64(n)/PMemReadBW + float64(n)/PMemWriteBW
	return time.Duration(secs * float64(time.Second))
}

// DigestTime models computing block digests over n bytes at DigestBW.
func DigestTime(n int64) time.Duration {
	return time.Duration(float64(n) / DigestBW * float64(time.Second))
}

// Restore-path costs.
const (
	// GDSRestoreBW is the effective storage→GPU bandwidth of the
	// baselines' GPU-Direct-Storage restore (bounded by the same
	// two-sided transfer for BeeGFS and the NVMe read path for ext4).
	GDSRestoreBW = 2.25 * GB
	// RestoreReconstruct is the fixed model-reconstruction overhead of
	// deserializing a checkpoint container during restore.
	RestoreReconstruct = 4 * time.Millisecond
	// RestorePerTensor is the per-tensor reconstruction cost (object
	// allocation, shape checks) during baseline restore.
	RestorePerTensor = 130 * time.Microsecond
)

// DefaultChunk is the chunk size used for pipelined multi-stage
// transfers in the simulated datapath.
const DefaultChunk = 4 * MiB

// MinChunk is the smallest chunk the planner (internal/datapath) will
// split a tensor into; below this the per-verb issue cost dominates.
const MinChunk = 256 * KiB
