// Package mem models the node-local memory devices of the paper's Table I:
// DRAM and a PCM-class NVM. Each device couples capacity accounting with
// fair-shared read/write bandwidth pipes and per-page latencies. The paper
// emulates PCM by partitioning DRAM and injecting memcpy delays; here the
// same delays come from the simulation's bandwidth model, which additionally
// reproduces per-core bandwidth collapse under concurrent access (Figure 4).
package mem

import (
	"fmt"
	"time"

	"nvmcp/internal/resource"
	"nvmcp/internal/sim"
)

// Byte-size units.
const (
	KB = int64(1) << 10
	MB = int64(1) << 20
	GB = int64(1) << 30
)

// PageSize is the virtual-memory page granularity used throughout.
const PageSize = 4 * KB

// Table I hardware parameters (five-year PCM projection cited by the paper).
const (
	// DRAMWriteBW is DRAM's aggregate write bandwidth (~8 GB/s).
	DRAMWriteBW = 8 * 1000 * 1000 * 1000
	// PCMWriteBW is PCM's aggregate write bandwidth (~2 GB/s).
	PCMWriteBW = 2 * 1000 * 1000 * 1000
	// DRAMPageLatency is the DRAM page access latency (~20-50 ns).
	DRAMPageLatency = 35 * time.Nanosecond
	// PCMPageWriteLatency is the PCM page write latency (~1 us).
	PCMPageWriteLatency = time.Microsecond
	// PCMPageReadLatency is the PCM page read latency (~50 ns),
	// comparable to DRAM.
	PCMPageReadLatency = 50 * time.Nanosecond
	// CachelineSize is the processor cacheline granularity used by the
	// flush-on-commit path.
	CachelineSize = 64
	// CachelineFlushLatency approximates one clflush+drain.
	CachelineFlushLatency = 100 * time.Nanosecond

	// PCMWriteEndurance is PCM's per-cell write endurance (Table I: 10^8,
	// vs 10^16 for DRAM).
	PCMWriteEndurance = 1e8
	// DRAMWriteEndurance is DRAM's effective per-cell endurance.
	DRAMWriteEndurance = 1e16
	// PCMWriteEnergyPerBit is PCM's write energy in joules/bit — the paper
	// notes 40x higher than DRAM's.
	PCMWriteEnergyPerBit = 40 * DRAMWriteEnergyPerBit
	// DRAMWriteEnergyPerBit approximates DRAM write energy (~1 pJ/bit).
	DRAMWriteEnergyPerBit = 1e-12
)

// Fig4Beta is the DRAM contention coefficient calibrated so that 12
// concurrent copy streams each retain ~33 % of single-stream bandwidth — the
// 67 % per-core drop the paper measures with the LANL parallel memcpy
// benchmark (Figure 4) at its 33 MB point.
var Fig4Beta = resource.BetaForPerFlowDrop(12, 0.33)

// fig4CalibrationSize is the copy size at which Fig4Beta was calibrated.
const fig4CalibrationSize = 33 * MB

// DRAMCacheBytes approximates the last-level cache capacity that absorbs
// part of small copies, softening their bandwidth contention: Figure 4 shows
// the per-core drop deepening with copy size.
const DRAMCacheBytes = 8 * MB

// DRAMBetaForCopySize returns the contention coefficient for streams of the
// given copy size: beta scales with the fraction of each copy that misses
// the cache, normalized so the 33 MB calibration point keeps Fig4Beta.
func DRAMBetaForCopySize(size int64) float64 {
	if size <= 0 {
		return 0
	}
	missFrac := func(s int64) float64 { return float64(s) / float64(s+DRAMCacheBytes) }
	return Fig4Beta * missFrac(size) / missFrac(fig4CalibrationSize)
}

// NewDRAMWithBeta builds a DRAM device with an explicit contention
// coefficient (used by the memcpy benchmark's per-size sweeps).
func NewDRAMWithBeta(env *sim.Env, capacity int64, beta float64) *Device {
	d := NewDRAM(env, capacity)
	scale := resource.SaturatingScaling(beta)
	d.Write = resource.NewPipe(env, "dram-write", DRAMWriteBW, scale)
	d.Read = resource.NewPipe(env, "dram-read", DRAMWriteBW, scale)
	return d
}

// Device is a memory device: capacity accounting plus shared read and write
// bandwidth and per-page latencies.
type Device struct {
	Name      string
	Write     *resource.Pipe
	Read      *resource.Pipe
	Capacity  int64
	Used      int64
	PageWrite time.Duration
	PageRead  time.Duration
	// Persistent marks the device's contents as surviving process and node
	// soft restarts (true for NVM, false for DRAM).
	Persistent bool

	// Endurance is the per-cell write endurance (writes before wear-out).
	Endurance float64
	// WriteEnergyPerBit is the energy cost of writing one bit, in joules.
	WriteEnergyPerBit float64
	// BytesWritten accumulates all write traffic, feeding wear and energy
	// projections.
	BytesWritten int64
}

// NewDRAM builds a DRAM device: high bandwidth, sub-linear scaling under
// concurrent streams per the Figure 4 calibration.
func NewDRAM(env *sim.Env, capacity int64) *Device {
	scale := resource.SaturatingScaling(Fig4Beta)
	return &Device{
		Name:              "dram",
		Write:             resource.NewPipe(env, "dram-write", DRAMWriteBW, scale),
		Read:              resource.NewPipe(env, "dram-read", DRAMWriteBW, scale),
		Capacity:          capacity,
		PageWrite:         DRAMPageLatency,
		PageRead:          DRAMPageLatency,
		Endurance:         DRAMWriteEndurance,
		WriteEnergyPerBit: DRAMWriteEnergyPerBit,
	}
}

// NewPCM builds a PCM-class NVM device with Table I parameters: ~2 GB/s
// aggregate write bandwidth that a single stream can saturate (flat
// scaling — more writers only divide it), and read bandwidth comparable to
// DRAM.
func NewPCM(env *sim.Env, capacity int64) *Device {
	return &Device{
		Name:              "pcm",
		Write:             resource.NewPipe(env, "pcm-write", PCMWriteBW, resource.FlatScaling()),
		Read:              resource.NewPipe(env, "pcm-read", DRAMWriteBW, resource.SaturatingScaling(Fig4Beta)),
		Capacity:          capacity,
		PageWrite:         PCMPageWriteLatency,
		PageRead:          PCMPageReadLatency,
		Persistent:        true,
		Endurance:         PCMWriteEndurance,
		WriteEnergyPerBit: PCMWriteEnergyPerBit,
	}
}

// NewPCMWithPerCoreBW builds an NVM device whose effective write bandwidth
// per core is perCore bytes/sec when cores streams write concurrently — the
// x-axis knob of Figures 7 and 8.
func NewPCMWithPerCoreBW(env *sim.Env, capacity int64, perCore float64, cores int) *Device {
	d := NewPCM(env, capacity)
	d.Write = resource.NewPipe(env, "pcm-write", perCore*float64(cores), resource.FlatScaling())
	return d
}

// Reserve claims size bytes of capacity, failing when the device is full.
func (d *Device) Reserve(size int64) error {
	if size < 0 {
		return fmt.Errorf("mem: negative reservation %d on %s", size, d.Name)
	}
	if d.Used+size > d.Capacity {
		return fmt.Errorf("mem: %s out of space: used %d + %d > capacity %d",
			d.Name, d.Used, size, d.Capacity)
	}
	d.Used += size
	return nil
}

// Release returns size bytes of capacity.
func (d *Device) Release(size int64) {
	d.Used -= size
	if d.Used < 0 {
		panic("mem: release below zero on " + d.Name)
	}
}

// WriteBytes blocks p while size bytes are written to the device, sharing
// write bandwidth with all concurrent writers, and accounts the traffic for
// wear and energy projections.
func (d *Device) WriteBytes(p *sim.Proc, size int64) {
	if size > 0 {
		d.BytesWritten += size
	}
	d.Write.Transfer(p, size)
}

// LifetimeYearsAt projects how many years the device lasts under a sustained
// write load of the given bytes/sec, assuming ideal wear leveling over the
// whole capacity: lifetime = capacity × endurance / write rate. (Durations
// this long overflow time.Duration, hence years as float64.)
func (d *Device) LifetimeYearsAt(bytesPerSec float64) float64 {
	if bytesPerSec <= 0 || d.Endurance <= 0 {
		return 0
	}
	const secondsPerYear = 365.25 * 24 * 3600
	return float64(d.Capacity) * d.Endurance / bytesPerSec / secondsPerYear
}

// ReadBytes blocks p while size bytes are read from the device.
func (d *Device) ReadBytes(p *sim.Proc, size int64) {
	d.Read.Transfer(p, size)
}

// FlushCost returns the time to flush size bytes of dirty cachelines to the
// device, charged at commit time so data is durable before a checkpoint is
// marked consistent.
func (d *Device) FlushCost(size int64) time.Duration {
	lines := (size + CachelineSize - 1) / CachelineSize
	return time.Duration(lines) * CachelineFlushLatency / 64
	// The /64 reflects flush pipelining: modern flush loops retire about
	// 64 lines per drain period rather than serializing each clflush.
}

// PerCoreWriteBW returns the effective write bandwidth each of n concurrent
// writers receives (NVMBW_core in the paper's model).
func (d *Device) PerCoreWriteBW(n int) float64 { return d.Write.PerFlowRate(n) }

// Copy moves size bytes from src to dst, blocking p for the duration. The
// transfer is charged to the slower of src's read path and dst's write path
// — for DRAM→PCM that is PCM's write pipe, which is exactly the contention
// the pre-copy mechanisms fight.
func Copy(p *sim.Proc, src, dst *Device, size int64) {
	if size <= 0 {
		return
	}
	dst.BytesWritten += size
	bottleneck(src, dst).Transfer(p, size)
}

// CopyCapped is Copy with a per-stream rate ceiling (a throttled background
// pre-copy stream).
func CopyCapped(p *sim.Proc, src, dst *Device, size int64, maxRate float64) {
	if size <= 0 {
		return
	}
	dst.BytesWritten += size
	bottleneck(src, dst).TransferCapped(p, size, maxRate)
}

func bottleneck(src, dst *Device) *resource.Pipe {
	if src.Read.SingleRate() < dst.Write.SingleRate() {
		return src.Read
	}
	return dst.Write
}

// String implements fmt.Stringer.
func (d *Device) String() string {
	return fmt.Sprintf("mem.Device{%s cap=%d used=%d}", d.Name, d.Capacity, d.Used)
}
