package resource

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"nvmcp/internal/sim"
)

const (
	kb = 1 << 10
	mb = 1 << 20
)

func TestSingleTransferTiming(t *testing.T) {
	e := sim.NewEnv()
	pp := NewPipe(e, "nvm", 100*mb, FlatScaling()) // 100 MB/s
	var done time.Duration
	e.Go("w", func(p *sim.Proc) {
		pp.Transfer(p, 50*mb)
		done = p.Now()
	})
	e.Run()
	want := 500 * time.Millisecond
	if diff := (done - want).Abs(); diff > time.Millisecond {
		t.Fatalf("50MB at 100MB/s finished at %v, want ~%v", done, want)
	}
	if pp.Transfers != 1 {
		t.Fatalf("Transfers = %d, want 1", pp.Transfers)
	}
	if math.Abs(pp.Bytes-50*mb) > 1 {
		t.Fatalf("Bytes = %v, want %d", pp.Bytes, 50*mb)
	}
}

func TestFlatSharingHalvesRate(t *testing.T) {
	e := sim.NewEnv()
	pp := NewPipe(e, "nvm", 100*mb, FlatScaling())
	var d1, d2 time.Duration
	e.Go("a", func(p *sim.Proc) { pp.Transfer(p, 50*mb); d1 = p.Now() })
	e.Go("b", func(p *sim.Proc) { pp.Transfer(p, 50*mb); d2 = p.Now() })
	e.Run()
	// Two equal flows sharing 100 MB/s: both complete at 1s.
	for _, d := range []time.Duration{d1, d2} {
		if diff := (d - time.Second).Abs(); diff > time.Millisecond {
			t.Fatalf("shared transfer finished at %v, want ~1s", d)
		}
	}
}

func TestShortFlowReleasesBandwidth(t *testing.T) {
	e := sim.NewEnv()
	pp := NewPipe(e, "nvm", 100*mb, FlatScaling())
	var dShort, dLong time.Duration
	e.Go("short", func(p *sim.Proc) { pp.Transfer(p, 10*mb); dShort = p.Now() })
	e.Go("long", func(p *sim.Proc) { pp.Transfer(p, 60*mb); dLong = p.Now() })
	e.Run()
	// Both run at 50 MB/s until short's 10MB finish at 0.2s; long then has
	// 50MB left at 100MB/s -> finishes at 0.7s.
	if diff := (dShort - 200*time.Millisecond).Abs(); diff > time.Millisecond {
		t.Fatalf("short finished at %v, want ~200ms", dShort)
	}
	if diff := (dLong - 700*time.Millisecond).Abs(); diff > time.Millisecond {
		t.Fatalf("long finished at %v, want ~700ms", dLong)
	}
}

func TestLateArrivalSlowsInFlightTransfer(t *testing.T) {
	e := sim.NewEnv()
	pp := NewPipe(e, "nvm", 100*mb, FlatScaling())
	var dA time.Duration
	e.Go("a", func(p *sim.Proc) { pp.Transfer(p, 100*mb); dA = p.Now() })
	e.Go("b", func(p *sim.Proc) {
		p.Sleep(500 * time.Millisecond)
		pp.Transfer(p, 100*mb)
	})
	e.Run()
	// a: 50MB done in first 0.5s alone, then 50MB at 50MB/s -> 1.5s total.
	if diff := (dA - 1500*time.Millisecond).Abs(); diff > time.Millisecond {
		t.Fatalf("a finished at %v, want ~1.5s", dA)
	}
}

func TestPerFlowCapLeavesHeadroom(t *testing.T) {
	e := sim.NewEnv()
	pp := NewPipe(e, "link", 100*mb, FlatScaling())
	var dCapped, dFree time.Duration
	e.Go("capped", func(p *sim.Proc) {
		pp.TransferCapped(p, 10*mb, 10*mb) // throttled to 10 MB/s
		dCapped = p.Now()
	})
	e.Go("free", func(p *sim.Proc) {
		pp.Transfer(p, 90*mb) // gets the remaining 90 MB/s
		dFree = p.Now()
	})
	e.Run()
	if diff := (dCapped - time.Second).Abs(); diff > 2*time.Millisecond {
		t.Fatalf("capped finished at %v, want ~1s", dCapped)
	}
	if diff := (dFree - time.Second).Abs(); diff > 2*time.Millisecond {
		t.Fatalf("free finished at %v, want ~1s", dFree)
	}
}

func TestSaturatingScalingPerFlowShare(t *testing.T) {
	// Calibrated so 12 flows retain 33% of single-flow bandwidth, the
	// paper's Figure 4 observation.
	beta := BetaForPerFlowDrop(12, 0.33)
	scale := SaturatingScaling(beta)
	if got := scale(1); math.Abs(got-1) > 1e-9 {
		t.Fatalf("scale(1) = %v, want 1", got)
	}
	perFlow12 := scale(12) / 12
	if math.Abs(perFlow12-0.33) > 1e-9 {
		t.Fatalf("per-flow share at 12 = %v, want 0.33", perFlow12)
	}
	// Monotonic aggregate, monotonically decreasing per-flow share.
	for n := 2; n <= 64; n++ {
		if scale(n) < scale(n-1) {
			t.Fatalf("aggregate scale decreased at n=%d", n)
		}
		if scale(n)/float64(n) > scale(n-1)/float64(n-1)+1e-12 {
			t.Fatalf("per-flow share increased at n=%d", n)
		}
	}
}

func TestCapacityAndPerFlowRate(t *testing.T) {
	e := sim.NewEnv()
	pp := NewPipe(e, "dram", 1000, SaturatingScaling(0.5))
	if got := pp.Capacity(1); got != 1000 {
		t.Fatalf("Capacity(1) = %v, want 1000", got)
	}
	// n=3: scale = 3/(1+0.5*2) = 1.5 -> capacity 1500, per-flow 500.
	if got := pp.Capacity(3); math.Abs(got-1500) > 1e-9 {
		t.Fatalf("Capacity(3) = %v, want 1500", got)
	}
	if got := pp.PerFlowRate(3); math.Abs(got-500) > 1e-9 {
		t.Fatalf("PerFlowRate(3) = %v, want 500", got)
	}
	if pp.Capacity(0) != 0 || pp.PerFlowRate(0) != 0 {
		t.Fatal("zero flows should have zero capacity/rate")
	}
}

func TestKilledTransferFreesShare(t *testing.T) {
	e := sim.NewEnv()
	pp := NewPipe(e, "nvm", 100*mb, FlatScaling())
	victim := e.Go("victim", func(p *sim.Proc) {
		pp.Transfer(p, 1000*mb)
		t.Error("victim's transfer completed")
	})
	var dSurvivor time.Duration
	e.Go("survivor", func(p *sim.Proc) { pp.Transfer(p, 100*mb); dSurvivor = p.Now() })
	e.Go("killer", func(p *sim.Proc) {
		p.Sleep(time.Second)
		victim.Kill()
	})
	e.Run()
	// Shared 50MB/s for 1s (survivor: 50MB done), then full 100MB/s for
	// the remaining 50MB -> 1.5s.
	if diff := (dSurvivor - 1500*time.Millisecond).Abs(); diff > 2*time.Millisecond {
		t.Fatalf("survivor finished at %v, want ~1.5s", dSurvivor)
	}
	if len(pp.flows) != 0 {
		t.Fatalf("flows leaked: %d", len(pp.flows))
	}
	// The victim moved ~50MB before dying; total accounted bytes reflect it.
	if pp.Bytes < 149*mb || pp.Bytes > 151*mb {
		t.Fatalf("Bytes = %.0f, want ~150MB", pp.Bytes)
	}
}

func TestZeroSizeTransferIsInstant(t *testing.T) {
	e := sim.NewEnv()
	pp := NewPipe(e, "nvm", 100, nil)
	var done time.Duration = -1
	e.Go("w", func(p *sim.Proc) {
		pp.Transfer(p, 0)
		done = p.Now()
	})
	e.Run()
	if done != 0 {
		t.Fatalf("zero transfer took %v", done)
	}
}

func TestBusyTimeAccounting(t *testing.T) {
	e := sim.NewEnv()
	pp := NewPipe(e, "nvm", 100*mb, FlatScaling())
	e.Go("w", func(p *sim.Proc) {
		pp.Transfer(p, 50*mb) // 0.5s busy
		p.Sleep(time.Second)  // idle
		pp.Transfer(p, 50*mb) // 0.5s busy
	})
	e.Run()
	want := time.Second
	if diff := (pp.BusyTime - want).Abs(); diff > 2*time.Millisecond {
		t.Fatalf("BusyTime = %v, want ~%v", pp.BusyTime, want)
	}
}

func TestEstimateTime(t *testing.T) {
	e := sim.NewEnv()
	pp := NewPipe(e, "nvm", 2*1000*mb, nil) // ~2GB/s
	got := pp.EstimateTime(1000 * mb)
	if diff := (got - 500*time.Millisecond).Abs(); diff > time.Millisecond {
		t.Fatalf("EstimateTime = %v, want ~500ms", got)
	}
}

func TestManyConcurrentFlowsCompleteExactly(t *testing.T) {
	e := sim.NewEnv()
	pp := NewPipe(e, "nvm", 100*mb, FlatScaling())
	const n = 24
	finished := 0
	for i := 0; i < n; i++ {
		e.Go("w", func(p *sim.Proc) {
			pp.Transfer(p, 10*mb)
			finished++
		})
	}
	e.Run()
	if finished != n {
		t.Fatalf("finished = %d, want %d", finished, n)
	}
	// n equal flows of 10MB over 100MB/s aggregate: all done at n*0.1s.
	want := time.Duration(n) * 100 * time.Millisecond
	if diff := (e.Now() - want).Abs(); diff > 5*time.Millisecond {
		t.Fatalf("all done at %v, want ~%v", e.Now(), want)
	}
	if len(pp.flows) != 0 {
		t.Fatalf("flows leaked: %d", len(pp.flows))
	}
}

func TestBytesConservationProperty(t *testing.T) {
	// Whatever mix of sizes, caps and arrival times, completed transfers
	// account for exactly the bytes offered.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := sim.NewEnv()
		pp := NewPipe(e, "p", 100*mb, SaturatingScaling(rng.Float64()))
		var offered int64
		n := 2 + rng.Intn(12)
		for i := 0; i < n; i++ {
			size := int64(rng.Intn(20*mb) + 1)
			delay := time.Duration(rng.Intn(1000)) * time.Millisecond
			cap := math.Inf(1)
			if rng.Intn(2) == 0 {
				cap = float64(rng.Intn(50*mb) + 1)
			}
			offered += size
			e.Go("w", func(p *sim.Proc) {
				p.Sleep(delay)
				pp.TransferCapped(p, size, cap)
			})
		}
		e.Run()
		return math.Abs(pp.Bytes-float64(offered)) < 1.0 &&
			len(pp.flows) == 0 &&
			pp.Transfers == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCompletionOrderRespectsSizesProperty(t *testing.T) {
	// Equal-start uncapped flows must complete in size order.
	f := func(sizes8 [5]uint16) bool {
		e := sim.NewEnv()
		pp := NewPipe(e, "p", 100*mb, FlatScaling())
		type done struct {
			size int64
			at   time.Duration
		}
		var finished []done
		for _, s16 := range sizes8 {
			size := int64(s16) + 1
			e.Go("w", func(p *sim.Proc) {
				pp.Transfer(p, size)
				finished = append(finished, done{size, p.Now()})
			})
		}
		e.Run()
		for i := 1; i < len(finished); i++ {
			if finished[i].at < finished[i-1].at {
				return false
			}
			if finished[i].size < finished[i-1].size && finished[i].at > finished[i-1].at {
				return false // smaller flow finished after a larger one
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() time.Duration {
		e := sim.NewEnv()
		pp := NewPipe(e, "nvm", 100*mb, SaturatingScaling(0.2))
		for i := 0; i < 8; i++ {
			size := int64((i + 1) * 5 * mb)
			e.Go("w", func(p *sim.Proc) { pp.Transfer(p, size) })
		}
		e.Run()
		return e.Now()
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d ended at %v, first at %v", i, got, first)
		}
	}
}

// TestBytesDeterministicAcrossRuns pins the advance() accumulation order:
// with many concurrently staggered capped flows, the cumulative Bytes float
// must be bit-identical across repeated runs. Before flows were kept in a
// sorted slice, advance iterated a map and the float sum depended on Go's
// randomized map order.
func TestBytesDeterministicAcrossRuns(t *testing.T) {
	run := func() (float64, time.Duration) {
		e := sim.NewEnv()
		pp := NewPipe(e, "nvm", 97*mb, SaturatingScaling(0.17))
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 32; i++ {
			size := int64(rng.Intn(20*mb) + 1)
			cap := float64(rng.Intn(50*mb) + 1*mb)
			delay := time.Duration(rng.Intn(100)) * time.Millisecond
			e.Go("w", func(p *sim.Proc) {
				p.Sleep(delay)
				pp.TransferCapped(p, size, cap)
			})
		}
		e.Run()
		return pp.Bytes, e.Now()
	}
	firstBytes, firstEnd := run()
	for i := 0; i < 10; i++ {
		b, end := run()
		if b != firstBytes || end != firstEnd {
			t.Fatalf("run %d: Bytes=%v end=%v, first Bytes=%v end=%v",
				i, b, end, firstBytes, firstEnd)
		}
	}
}

// BenchmarkPipeChurn measures the incremental flow-set maintenance under a
// churning population: staggered concurrent transfers join and leave, each
// arrival/departure triggering a max-min recompute over the live set.
func BenchmarkPipeChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := sim.NewEnv()
		pp := NewPipe(e, "nvm", 400*mb, FlatScaling())
		for w := 0; w < 64; w++ {
			w := w % 8
			e.Go("w", func(p *sim.Proc) {
				p.Sleep(time.Duration(w) * 5 * time.Millisecond)
				for j := 0; j < 16; j++ {
					pp.TransferCapped(p, 2*mb, float64(50+w*10)*mb)
				}
			})
		}
		e.Run()
	}
}

// BenchmarkPipeTransfer measures Pipe.Transfer with 12 concurrent flows
// sharing one pipe, so every arrival and departure re-shares the bandwidth.
// One op is one transfer; the flows run warm, so pools are grown.
func BenchmarkPipeTransfer(b *testing.B) {
	const flows = 12
	e := sim.NewEnv()
	pp := NewPipe(e, "nvm", 1e9, FlatScaling())
	done, target := 0, -1 // target < 0: run until told
	for i := 0; i < flows; i++ {
		e.Go("flow", func(p *sim.Proc) {
			for target < 0 || done < target {
				pp.Transfer(p, 64*kb+int64(i)*kb)
				done++
			}
		})
	}
	e.RunUntil(10 * time.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	target = done + b.N
	e.Run()
}
