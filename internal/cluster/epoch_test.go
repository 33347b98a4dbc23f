package cluster

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"nvmcp/internal/fault"
	"nvmcp/internal/obs"
)

// TestDeadEpochStoresReleased: a recovery epoch replaces every rank's store,
// and the run's totals are read from the registry, so the cluster keeps no
// reference to a dead epoch's stores. A finalizer set from a control tick on
// each first-epoch store must run once the faulted run is over, while the
// *Cluster is still reachable. The finalizer sits on the store's counter
// array, not on the Store: a Store is in a cycle with its chunks, and the
// runtime never finalizes an object that can reach itself.
func TestDeadEpochStoresReleased(t *testing.T) {
	cfg := smallCfg()
	cfg.Iterations = 4
	cfg.Remote = "buddy-precopy"
	cfg.Failures = []fault.Event{{At: 5 * time.Second, Node: 0, Kind: fault.Soft}}
	var watched int
	var freed atomic.Int32
	cfg.Control = &Control{OnTick: func(c *Cluster, _ time.Duration) {
		if watched > 0 || len(c.epochStores) == 0 {
			return
		}
		for _, s := range c.epochStores {
			runtime.SetFinalizer(&s.Counters[0], func(*obs.Count) { freed.Add(1) })
			watched++
		}
	}}
	res, c := MustRun(cfg)
	if res.FailuresInjected != 1 || watched == 0 {
		t.Fatalf("injected %d failures, watched %d stores; want 1 and > 0", res.FailuresInjected, watched)
	}
	for i := 0; i < 20 && int(freed.Load()) < watched; i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if got := int(freed.Load()); got != watched {
		t.Errorf("%d of the first epoch's %d stores released after the run", got, watched)
	}
	runtime.KeepAlive(c)
}
