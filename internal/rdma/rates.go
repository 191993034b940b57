package rdma

import (
	"time"

	"github.com/portus-sys/portus/internal/memdev"
	"github.com/portus-sys/portus/internal/perfmodel"
)

// DeviceRates gives the bandwidth model of one device kind as seen by
// remote DMA: aggregate read/write capacities of the device and per-flow
// caps on the access path.
type DeviceRates struct {
	ReadBW       float64 // aggregate device read capacity (bytes/s)
	WriteBW      float64 // aggregate device write capacity
	ReadFlowCap  float64 // per-flow cap for remote reads; 0 = uncapped
	WriteFlowCap float64 // per-flow cap for remote writes
}

// RateTable is the full performance model of a node's DMA paths.
type RateTable struct {
	NICBandwidth float64
	ReadLatency  time.Duration // one-sided verb latency
	WriteLatency time.Duration
	DRAM         DeviceRates
	GPU          DeviceRates
	PMEM         DeviceRates
	NVMe         DeviceRates
}

// DefaultRates returns the calibrated rate table from perfmodel: the
// 5.8 GB/s GPU BAR read cap (writes unaffected), the 8.3 GB/s DRAM
// remote-read peak, and PMem's aggregate 6.2 GB/s write capacity.
func DefaultRates() RateTable {
	return RateTable{
		NICBandwidth: perfmodel.NICBandwidth,
		ReadLatency:  perfmodel.RDMALatency,
		WriteLatency: perfmodel.RDMALatency,
		DRAM: DeviceRates{
			ReadBW:      perfmodel.ServerDRAMBW,
			WriteBW:     perfmodel.ServerDRAMBW,
			ReadFlowCap: perfmodel.DRAMRemoteReadBW,
		},
		GPU: DeviceRates{
			// The base address register unit disables prefetching for
			// remote reads of GPU memory; the whole device is capped at
			// 5.8 GB/s (§V-B). Writes bypass the BAR bottleneck.
			ReadBW:       perfmodel.GPUBARReadBW,
			WriteBW:      perfmodel.GPUWriteBW,
			ReadFlowCap:  perfmodel.GPUBARReadBW,
			WriteFlowCap: perfmodel.GPUWriteBW,
		},
		PMEM: DeviceRates{
			ReadBW:  perfmodel.PMemReadBW,
			WriteBW: perfmodel.PMemWriteBW,
		},
		NVMe: DeviceRates{
			ReadBW:  perfmodel.NVMeReadBW,
			WriteBW: perfmodel.NVMeWriteBW,
		},
	}
}

// ForKind selects the rates for a device kind.
func (t RateTable) ForKind(k memdev.Kind) DeviceRates {
	switch k {
	case memdev.GPU:
		return t.GPU
	case memdev.PMEM:
		return t.PMEM
	case memdev.NVMe:
		return t.NVMe
	default:
		return t.DRAM
	}
}

// WithGPUReadCap returns a copy of the table with the GPU BAR read cap
// replaced — used by the BAR-sensitivity ablation.
func (t RateTable) WithGPUReadCap(bw float64) RateTable {
	t.GPU.ReadBW = bw
	t.GPU.ReadFlowCap = bw
	return t
}

// pipeChunk picks the chunk size for a pipelined transfer: ~1/64 of the
// message bounded to [64 KiB, 8 MiB], so large transfers converge to the
// bottleneck rate while small ones stay latency-dominated.
func pipeChunk(size int64) int64 {
	c := size / 64
	if c < 64*perfmodel.KiB {
		c = 64 * perfmodel.KiB
	}
	if c > 8*perfmodel.MiB {
		c = 8 * perfmodel.MiB
	}
	return c
}
