package interconnect

import (
	"math"
	"reflect"
	"testing"
	"time"

	"nvmcp/internal/obs"
	"nvmcp/internal/sim"
)

const mb = 1 << 20

func TestTransferTiming(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, 2, 100*mb) // 100 MB/s links for easy arithmetic
	var done time.Duration
	e.Go("w", func(p *sim.Proc) {
		f.Transfer(p, 0, 1, 50*mb, ClassCkpt, 0)
		done = p.Now()
	})
	e.Run()
	want := 500 * time.Millisecond
	if diff := (done - want).Abs(); diff > 5*time.Millisecond {
		t.Fatalf("50MB over 100MB/s link took %v, want ~%v", done, want)
	}
	if got := f.Bytes(ClassCkpt); math.Abs(got-50*mb) > 1 {
		t.Fatalf("ckpt bytes = %v", got)
	}
}

func TestLocalTransferIsFree(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, 2, 100*mb)
	var done time.Duration = -1
	e.Go("w", func(p *sim.Proc) {
		f.Transfer(p, 1, 1, 500*mb, ClassCkpt, 0)
		done = p.Now()
	})
	e.Run()
	if done != 0 {
		t.Fatalf("node-local transfer took %v", done)
	}
	if f.Bytes(ClassCkpt) != 0 {
		t.Fatal("node-local transfer crossed the fabric")
	}
}

func TestAppAndCkptContendOnSameEgress(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, 2, 100*mb)
	var appDone, alone time.Duration
	// Baseline: app alone.
	e.Go("app-alone", func(p *sim.Proc) {
		f.Send(p, 0, 1, 50*mb)
		alone = p.Now()
	})
	e.Run()

	e2 := sim.NewEnv()
	f2 := New(e2, 2, 100*mb)
	e2.Go("app", func(p *sim.Proc) {
		f2.Send(p, 0, 1, 50*mb)
		appDone = p.Now()
	})
	e2.Go("ckpt", func(p *sim.Proc) {
		f2.RDMAWrite(p, 0, 1, 50*mb, 0)
	})
	e2.Run()
	if appDone <= alone {
		t.Fatalf("checkpoint traffic did not slow the app: %v vs %v alone", appDone, alone)
	}
}

func TestRateCapLimitsContention(t *testing.T) {
	// A capped background checkpoint stream must hurt the app less than an
	// uncapped one — the essence of pre-copy's interconnect benefit.
	run := func(cap float64) time.Duration {
		e := sim.NewEnv()
		f := New(e, 2, 100*mb)
		var appDone time.Duration
		e.Go("app", func(p *sim.Proc) {
			f.Send(p, 0, 1, 50*mb)
			appDone = p.Now()
		})
		e.Go("ckpt", func(p *sim.Proc) {
			f.RDMAWrite(p, 0, 1, 100*mb, cap)
		})
		e.Run()
		return appDone
	}
	capped := run(10 * mb) // 10 MB/s background stream
	uncapped := run(0)
	if capped >= uncapped {
		t.Fatalf("capped stream (%v) should beat uncapped (%v) for the app", capped, uncapped)
	}
}

func TestDistinctNodesDoNotContend(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, 3, 100*mb)
	var d0, d1 time.Duration
	e.Go("a", func(p *sim.Proc) { f.Send(p, 0, 2, 50*mb); d0 = p.Now() })
	e.Go("b", func(p *sim.Proc) { f.Send(p, 1, 2, 50*mb); d1 = p.Now() })
	e.Run()
	want := 500 * time.Millisecond
	for _, d := range []time.Duration{d0, d1} {
		if diff := (d - want).Abs(); diff > 5*time.Millisecond {
			t.Fatalf("independent senders took %v, want ~%v", d, want)
		}
	}
}

func TestSegmentationCountsSegments(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, 2, 1000*mb)
	f.Segment = 10 * mb
	e.Go("w", func(p *sim.Proc) { f.Transfer(p, 0, 1, 35*mb, ClassCkpt, 0) })
	e.Run()
	if got := f.Counters.Get("segments"); got != 4 {
		t.Fatalf("segments = %d, want 4 (10+10+10+5)", got)
	}
}

func TestCumulativeSeriesAndPeakWindow(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, 2, 100*mb)
	e.Go("burst", func(p *sim.Proc) {
		p.Sleep(10 * time.Second)
		f.RDMAWrite(p, 0, 1, 100*mb, 0) // 1s burst at t=10s
	})
	e.Go("spread", func(p *sim.Proc) {
		f.RDMAWrite(p, 0, 1, 50*mb, 5*mb) // 5 MB/s for 10s from t=0
	})
	e.Run()
	end := e.Now()
	peak, idx := f.PeakCkptWindow(end, 5*time.Second)
	// Windows of 5s: [0,5):~25MB, [5,10):~25MB, [10,15): 100MB burst + tail.
	if idx != 2 {
		t.Fatalf("peak window index = %d, want 2 (the burst)", idx)
	}
	if peak < 90*mb {
		t.Fatalf("peak window = %v bytes, want ~100MB", peak)
	}
}

func TestPerClassAccounting(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, 2, 100*mb)
	e.Go("w", func(p *sim.Proc) {
		f.Send(p, 0, 1, 10*mb)
		f.RDMAWrite(p, 0, 1, 20*mb, 0)
	})
	e.Run()
	if got := f.Counters.Get("bytes_app"); got != 10*mb {
		t.Fatalf("bytes_app = %d", got)
	}
	if got := f.Counters.Get("bytes_ckpt"); got != 20*mb {
		t.Fatalf("bytes_ckpt = %d", got)
	}
}

func TestIncastBoundedByReceiverIngress(t *testing.T) {
	// Four senders converge on node 4. Without ingress modeling each
	// finishes at its own egress rate (~1s); with it the receiver's link
	// is the bottleneck (~4s).
	run := func(modelIngress bool) time.Duration {
		e := sim.NewEnv()
		f := New(e, 5, 100*mb)
		f.ModelIngress = modelIngress
		for i := 0; i < 4; i++ {
			src := i
			e.Go("tx", func(p *sim.Proc) {
				f.RDMAWrite(p, src, 4, 100*mb, 0)
			})
		}
		e.Run()
		return e.Now()
	}
	without := run(false)
	with := run(true)
	if diff := (without - time.Second).Abs(); diff > 50*time.Millisecond {
		t.Fatalf("egress-only incast took %v, want ~1s", without)
	}
	if with < 3500*time.Millisecond || with > 4500*time.Millisecond {
		t.Fatalf("ingress-modeled incast took %v, want ~4s (receiver-bound)", with)
	}
}

func TestIngressPipeliningAddsLittleWhenUncontended(t *testing.T) {
	// A single point-to-point transfer with ingress modeling is pipelined:
	// total time ≈ egress time + one segment of ingress, not 2x.
	e := sim.NewEnv()
	f := New(e, 2, 100*mb)
	f.ModelIngress = true
	var took time.Duration
	e.Go("tx", func(p *sim.Proc) {
		start := p.Now()
		f.RDMAWrite(p, 0, 1, 100*mb, 0)
		took = p.Now() - start
	})
	e.Run()
	// 100MB at 100MB/s = 1s + one 16MB segment tail (~0.16s).
	if took < time.Second || took > 1300*time.Millisecond {
		t.Fatalf("pipelined transfer took %v, want ~1.16s", took)
	}
}

func TestIngressReceiverReleasedOnSenderKill(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, 2, 100*mb)
	f.ModelIngress = true
	victim := e.Go("tx", func(p *sim.Proc) {
		f.RDMAWrite(p, 0, 1, 1000*mb, 0)
	})
	e.Go("killer", func(p *sim.Proc) {
		p.Sleep(time.Second)
		victim.Kill()
	})
	e.Run() // must terminate: a stuck receiver would keep the queue alive
	if e.LiveProcs() != 0 {
		t.Fatalf("%d processes leaked after kill", e.LiveProcs())
	}
}

func TestCongestionPenaltyCapBounds(t *testing.T) {
	// A message squeezed brutally (tiny fair share under many uncapped
	// flows) must pay at most congestionPenaltyCap x its ideal time.
	e := sim.NewEnv()
	f := New(e, 2, 100*mb)
	const hogs = 16
	for i := 0; i < hogs; i++ {
		e.Go("hog", func(p *sim.Proc) { f.RDMAWrite(p, 0, 1, 400*mb, 0) })
	}
	var appTook time.Duration
	e.Go("app", func(p *sim.Proc) {
		p.Sleep(time.Millisecond) // join the melee
		start := p.Now()
		f.Send(p, 0, 1, mb)
		appTook = p.Now() - start
	})
	e.Run()
	ideal := f.egress[0].EstimateTime(mb) + f.Latency
	// Stretch factor: 17 flows share + capped penalty: bound generously.
	maxAllowed := time.Duration(float64(ideal) * (hogs + 1 + congestionPenaltyCap + 2))
	if appTook > maxAllowed {
		t.Fatalf("1MB send took %v, exceeds stretch+cap bound %v", appTook, maxAllowed)
	}
	if f.Counters.Get("congestion_events") == 0 {
		t.Fatal("no congestion event recorded")
	}
}

func TestAppSeriesTimeline(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, 2, 100*mb)
	e.Go("w", func(p *sim.Proc) {
		f.Send(p, 0, 1, 10*mb)
		p.Sleep(time.Second)
		f.Send(p, 0, 1, 10*mb)
	})
	e.Run()
	series := f.series[ClassApp]
	if series.Len() == 0 {
		t.Fatal("no app series recorded")
	}
	if got := series.At(e.Now()); math.Abs(got-20*mb) > 1 {
		t.Fatalf("cumulative app bytes = %v, want 20MB", got)
	}
}

func TestClassStringer(t *testing.T) {
	if ClassApp.String() != "app" || ClassCkpt.String() != "ckpt" {
		t.Fatal("class stringers wrong")
	}
}

func TestZeroAndNegativeSizesNoop(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, 2, 100*mb)
	e.Go("w", func(p *sim.Proc) {
		f.Transfer(p, 0, 1, 0, ClassApp, 0)
		f.Transfer(p, 0, 1, -5, ClassApp, 0)
	})
	e.Run()
	if f.Counters.Get("transfers") != 0 {
		t.Fatal("zero-size transfer was counted")
	}
	if e.Now() != 0 {
		t.Fatal("zero-size transfer consumed time")
	}
}

// TestRecorderBooksBytesOnly attaches a recorder: the byte counts book into
// the registry under the fabric_ prefix, the per-class series is the
// registry's fabric_bytes timeline, and the transfer and segment counts stay
// in-process while by-name reads still return them (the 20 MiB write
// crosses as two 16 MiB segments).
func TestRecorderBooksBytesOnly(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, 2, 100*mb)
	o := obs.New(e)
	f.SetRecorder(o.Recorder(0, "fabric"))
	e.Go("w", func(p *sim.Proc) {
		f.Send(p, 0, 1, 10*mb)
		f.RDMAWrite(p, 0, 1, 20*mb, 0)
	})
	e.Run()
	reg := o.Registry()
	scope := `{actor="fabric",node="0"}`
	want := map[string]float64{
		"fabric_bytes_app": 10 * mb, "fabric_bytes_app" + scope: 10 * mb,
		"fabric_bytes_ckpt": 20 * mb, "fabric_bytes_ckpt" + scope: 20 * mb,
	}
	if got := reg.Flatten(); !reflect.DeepEqual(got, want) {
		t.Fatalf("registry = %v, want %v", got, want)
	}
	if f.series[ClassCkpt] != reg.Timeline("fabric_bytes", obs.Labels{"class": "ckpt"}) {
		t.Fatal("ckpt series is not the registry's fabric_bytes timeline")
	}
	if got := f.series[ClassCkpt].At(e.Now()); got != 20*mb {
		t.Fatalf("cumulative ckpt bytes = %v, want 20MB", got)
	}
	if f.Counters.Get("transfers") != 2 || f.Counters.Get("segments") != 3 || f.Counters.Get("bytes_app") != 10*mb {
		t.Fatalf("by-name reads: transfers=%d segments=%d bytes_app=%d",
			f.Counters.Get("transfers"), f.Counters.Get("segments"), f.Counters.Get("bytes_app"))
	}
}
