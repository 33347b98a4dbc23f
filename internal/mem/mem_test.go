package mem

import (
	"math"
	"testing"
	"time"

	"nvmcp/internal/sim"
)

func TestTableIDeviceParameters(t *testing.T) {
	e := sim.NewEnv()
	dram := NewDRAM(e, 48*GB)
	pcm := NewPCM(e, 24*GB)
	if dram.Write.SingleRate() != DRAMWriteBW {
		t.Fatalf("DRAM write BW = %v", dram.Write.SingleRate())
	}
	if pcm.Write.SingleRate() != PCMWriteBW {
		t.Fatalf("PCM write BW = %v", pcm.Write.SingleRate())
	}
	if PCMWriteBW*4 != DRAMWriteBW {
		t.Fatal("Table I: PCM bandwidth should be 4x lower than DRAM")
	}
	if PCMPageWriteLatency < 10*DRAMPageLatency {
		t.Fatal("Table I: PCM write latency should be ~10x DRAM")
	}
	if !pcm.Persistent || dram.Persistent {
		t.Fatal("persistence flags wrong")
	}
}

func TestCapacityAccounting(t *testing.T) {
	e := sim.NewEnv()
	d := NewPCM(e, 10*MB)
	if err := d.Reserve(6 * MB); err != nil {
		t.Fatal(err)
	}
	if err := d.Reserve(6 * MB); err == nil {
		t.Fatal("over-reservation succeeded")
	}
	if free := d.Capacity - d.Used; free != 4*MB {
		t.Fatalf("free = %d, want 4MB", free)
	}
	d.Release(6 * MB)
	if d.Used != 0 {
		t.Fatalf("Used = %d, want 0", d.Used)
	}
	if err := d.Reserve(-1); err == nil {
		t.Fatal("negative reservation succeeded")
	}
}

func TestReleaseBelowZeroPanics(t *testing.T) {
	e := sim.NewEnv()
	d := NewPCM(e, MB)
	defer func() {
		if recover() == nil {
			t.Fatal("Release below zero did not panic")
		}
	}()
	d.Release(1)
}

func TestCopyUsesBottleneck(t *testing.T) {
	e := sim.NewEnv()
	dram := NewDRAM(e, GB)
	pcm := NewPCM(e, GB)
	var dur time.Duration
	e.Go("w", func(p *sim.Proc) {
		start := p.Now()
		Copy(p, dram, pcm, 2*1000*1000*1000) // 2 decimal GB at 2 GB/s
		dur = p.Now() - start
	})
	e.Run()
	if diff := (dur - time.Second).Abs(); diff > 5*time.Millisecond {
		t.Fatalf("DRAM->PCM 2GB took %v, want ~1s (PCM write bound)", dur)
	}
	if pcm.Write.Transfers != 1 || dram.Read.Transfers != 0 {
		t.Fatal("copy did not charge the PCM write pipe")
	}
}

func TestCopyBackFromPCMUsesFasterPath(t *testing.T) {
	e := sim.NewEnv()
	dram := NewDRAM(e, GB)
	pcm := NewPCM(e, GB)
	var dur time.Duration
	e.Go("w", func(p *sim.Proc) {
		start := p.Now()
		Copy(p, pcm, dram, 8*1000*1000*1000)
		dur = p.Now() - start
	})
	e.Run()
	// PCM read is DRAM-comparable (Table I): 8 GB at 8 GB/s ~ 1s.
	if diff := (dur - time.Second).Abs(); diff > 10*time.Millisecond {
		t.Fatalf("PCM->DRAM 8GB took %v, want ~1s", dur)
	}
}

func TestNVMPerCoreBandwidthCollapse(t *testing.T) {
	e := sim.NewEnv()
	pcm := NewPCM(e, GB)
	one := pcm.PerCoreWriteBW(1)
	twelve := pcm.PerCoreWriteBW(12)
	if one != PCMWriteBW {
		t.Fatalf("per-core at 1 = %v, want device BW", one)
	}
	if got := twelve * 12; math.Abs(got-PCMWriteBW) > 1 {
		t.Fatal("flat scaling: 12 cores should split the device bandwidth")
	}
	if twelve > 170*1000*1000 {
		t.Fatalf("per-core at 12 = %.0f, want ~167 MB/s", twelve)
	}
}

func TestDRAMPerCoreDropMatchesFig4Calibration(t *testing.T) {
	e := sim.NewEnv()
	dram := NewDRAM(e, GB)
	retain := dram.Write.PerFlowRate(12) / dram.Write.PerFlowRate(1)
	if math.Abs(retain-0.33) > 0.01 {
		t.Fatalf("12-core per-core retention = %v, want ~0.33 (67%% drop)", retain)
	}
}

func TestNewPCMWithPerCoreBW(t *testing.T) {
	e := sim.NewEnv()
	d := NewPCMWithPerCoreBW(e, GB, 400e6, 12)
	if got := d.PerCoreWriteBW(12); math.Abs(got-400e6) > 1 {
		t.Fatalf("per-core BW = %v, want 400 MB/s", got)
	}
}

func TestConcurrentNVMWritesShareBandwidth(t *testing.T) {
	e := sim.NewEnv()
	pcm := NewPCM(e, GB)
	const n = 4
	var finish [n]time.Duration
	for i := 0; i < n; i++ {
		e.Go("w", func(p *sim.Proc) {
			pcm.WriteBytes(p, 500*1000*1000)
			finish[i] = p.Now()
		})
	}
	e.Run()
	// 4 x 500MB over a shared 2 GB/s: all finish together at 1s.
	for _, f := range finish {
		if diff := (f - time.Second).Abs(); diff > 5*time.Millisecond {
			t.Fatalf("writer finished at %v, want ~1s", f)
		}
	}
}

func TestFlushCostScalesWithSize(t *testing.T) {
	e := sim.NewEnv()
	pcm := NewPCM(e, GB)
	small := pcm.FlushCost(4 * KB)
	large := pcm.FlushCost(4 * MB)
	if small <= 0 || large <= 0 {
		t.Fatal("flush costs must be positive")
	}
	ratio := float64(large) / float64(small)
	if math.Abs(ratio-1024) > 20 {
		t.Fatalf("flush cost ratio = %v, want ~1024", ratio)
	}
}

func TestDRAMBetaForCopySize(t *testing.T) {
	// Monotone in size, anchored at the 33MB calibration point.
	at33 := DRAMBetaForCopySize(33 * MB)
	if math.Abs(at33-Fig4Beta) > 1e-12 {
		t.Fatalf("beta(33MB) = %v, want Fig4Beta %v", at33, Fig4Beta)
	}
	if DRAMBetaForCopySize(MB) >= at33 {
		t.Fatal("small copies should contend less")
	}
	if DRAMBetaForCopySize(512*MB) <= at33 {
		t.Fatal("large copies should contend more")
	}
	if DRAMBetaForCopySize(0) != 0 || DRAMBetaForCopySize(-1) != 0 {
		t.Fatal("non-positive sizes should have zero beta")
	}
}

func TestNewDRAMWithBetaAndReads(t *testing.T) {
	e := sim.NewEnv()
	d := NewDRAMWithBeta(e, GB, 0) // linear scaling: no contention
	if got := d.Write.PerFlowRate(4); math.Abs(got-DRAMWriteBW) > 1 {
		t.Fatalf("beta=0 per-flow rate = %v, want full BW", got)
	}
	var took time.Duration
	e.Go("r", func(p *sim.Proc) {
		start := p.Now()
		d.ReadBytes(p, int64(DRAMWriteBW)) // 1s worth of reads
		took = p.Now() - start
	})
	e.Run()
	if diff := (took - time.Second).Abs(); diff > 5*time.Millisecond {
		t.Fatalf("read took %v, want ~1s", took)
	}
}

func TestCopyZeroAndStringers(t *testing.T) {
	e := sim.NewEnv()
	dram := NewDRAM(e, GB)
	pcm := NewPCM(e, GB)
	e.Go("w", func(p *sim.Proc) {
		Copy(p, dram, pcm, 0)
		Copy(p, dram, pcm, -1)
	})
	e.Run()
	if pcm.BytesWritten != 0 {
		t.Fatal("zero-size copies accounted bytes")
	}
	if s := pcm.String(); s == "" {
		t.Fatal("empty String()")
	}
}

func TestWearAndEnergyAccounting(t *testing.T) {
	e := sim.NewEnv()
	dram := NewDRAM(e, GB)
	pcm := NewPCM(e, GB)
	e.Go("w", func(p *sim.Proc) {
		pcm.WriteBytes(p, 100*MB)
		Copy(p, dram, pcm, 50*MB) // accounted to the destination
		Copy(p, pcm, dram, 25*MB) // accounted to DRAM, not PCM
	})
	e.Run()
	if pcm.BytesWritten != 150*MB {
		t.Fatalf("PCM BytesWritten = %d, want 150MB", pcm.BytesWritten)
	}
	if dram.BytesWritten != 25*MB {
		t.Fatalf("DRAM BytesWritten = %d, want 25MB", dram.BytesWritten)
	}
	// Table I: PCM write energy per bit is 40x DRAM's.
	if PCMWriteEnergyPerBit != 40*DRAMWriteEnergyPerBit {
		t.Fatal("energy ratio wrong")
	}
}

func TestLifetimeProjection(t *testing.T) {
	e := sim.NewEnv()
	pcm := NewPCM(e, GB)
	// 1 GiB capacity * 1e8 endurance / 1 GiB/s = 1e8 seconds ≈ 3.17 years.
	years := pcm.LifetimeYearsAt(float64(GB))
	if math.Abs(years-3.17) > 0.05 {
		t.Fatalf("lifetime = %v years, want ~3.17", years)
	}
	// Double the write rate halves the lifetime.
	if got := pcm.LifetimeYearsAt(float64(2 * GB)); math.Abs(got-years/2) > 1e-9 {
		t.Fatalf("lifetime at 2x rate = %v, want %v", got, years/2)
	}
	if pcm.LifetimeYearsAt(0) != 0 {
		t.Fatal("zero rate should project zero (undefined) lifetime")
	}
	// DRAM effectively never wears out under the same load.
	dram := NewDRAM(e, GB)
	if dram.LifetimeYearsAt(float64(GB)) < 1e6 {
		t.Fatal("DRAM lifetime implausibly short")
	}
}
