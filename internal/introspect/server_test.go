package introspect

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"nvmcp/internal/obs"
	"nvmcp/internal/sim"
)

// TestConcurrentPollersGetConsistentRates is the regression test for the
// shared lastPoll/lastEvents pair: with two scrapers interleaved, the old
// code handed the second one a ~0 events_per_sec (its baseline had just been
// advanced by the first), while the first read roughly double. The fix
// derives the rate from a shared monotonic sample history, so both pollers
// observe the same positive rate.
func TestConcurrentPollersGetConsistentRates(t *testing.T) {
	env := sim.NewEnv()
	o := obs.New(env)
	r := o.Recorder(0, "rank0")

	s := newServer()
	clock := time.Unix(1000, 0)
	s.now = func() time.Time { return clock }
	src := Source{Obs: o, Tool: "test"}

	// Poller A establishes the baseline at t=0 with zero events.
	if rate := s.progress(src).EventsPerSec; rate != 0 {
		t.Fatalf("first poll rate = %g, want 0", rate)
	}
	for i := 0; i < 100; i++ {
		r.Emit(obs.EvIteration, "", 0, nil)
	}
	// Poller A again, one second later: 100 events/s.
	clock = clock.Add(time.Second)
	if rate := s.progress(src).EventsPerSec; rate < 99 || rate > 101 {
		t.Fatalf("poller A rate = %g, want ~100", rate)
	}
	// Poller B lands 100ms behind A. Against the pre-fix shared pair its
	// baseline is A's just-written (t=1s, 100) sample, so it computed
	// (100-100)/0.1 = 0 despite 100 events flowing. Against the monotonic
	// history it measures from the t=0 sample: 100/1.1 ≈ 91.
	clock = clock.Add(100 * time.Millisecond)
	rate := s.progress(src).EventsPerSec
	if rate <= 0 {
		t.Fatalf("poller B rate = %g, want > 0 (pre-fix corruption)", rate)
	}
	if rate < 85 || rate > 101 {
		t.Fatalf("poller B rate = %g, want ~91", rate)
	}
}

// TestRateSampleHistoryStaysBounded hammers the rate path and checks the
// sample history both ages out and respects the hard cap.
func TestRateSampleHistoryStaysBounded(t *testing.T) {
	s := newServer()
	clock := time.Unix(1000, 0)
	s.now = func() time.Time { return clock }
	for i := 0; i < 10_000; i++ {
		clock = clock.Add(time.Millisecond)
		s.observeRate(i)
	}
	s.mu.Lock()
	n := len(s.samples)
	s.mu.Unlock()
	if n > maxRateSamples+1 {
		t.Fatalf("sample history = %d entries, cap %d", n, maxRateSamples)
	}
}

// TestCloseDrainsInflightRequests is the regression test for the hard-drop
// shutdown: the old Close() called http.Server.Close, which severs active
// connections, so a scraper mid-request saw an EOF. The graceful path must
// let the in-flight request finish inside the drain deadline.
func TestCloseDrainsInflightRequests(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	src := Source{Tool: "test", Status: func() string {
		once.Do(func() { close(entered) })
		<-release
		return "draining"
	}}
	srv, err := Serve("127.0.0.1:0", src)
	if err != nil {
		t.Fatal(err)
	}
	// White-box: a resident server must not be slowloris-able.
	if srv.http.ReadHeaderTimeout == 0 || srv.http.WriteTimeout == 0 {
		t.Fatalf("server timeouts unset: readHeader=%v write=%v",
			srv.http.ReadHeaderTimeout, srv.http.WriteTimeout)
	}

	type result struct {
		body string
		code int
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + srv.Addr().String() + "/progress")
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		done <- result{body: string(b), code: resp.StatusCode, err: err}
	}()

	<-entered // the request is now in flight inside the handler
	closeErr := make(chan error, 1)
	go func() { closeErr <- srv.Close() }()
	// Let Shutdown begin its drain before the handler is released; a hard
	// Close here (the pre-fix behavior) severs the connection immediately.
	time.Sleep(50 * time.Millisecond)
	close(release)

	res := <-done
	if res.err != nil {
		t.Fatalf("in-flight request dropped during Close: %v", res.err)
	}
	if res.code != 200 || !strings.Contains(res.body, "draining") {
		t.Fatalf("in-flight response = %d %q", res.code, res.body)
	}
	if err := <-closeErr; err != nil {
		t.Fatalf("Close() = %v, want graceful drain", err)
	}
	// The serve loop exited cleanly: the error channel closes empty.
	select {
	case err, ok := <-srv.ServeErr():
		if ok {
			t.Fatalf("ServeErr delivered %v on clean shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeErr not closed after Close")
	}
}

// TestAPIHandlerMount checks that a Source.API handler is reachable under
// /api/ and absent otherwise.
func TestAPIHandlerMount(t *testing.T) {
	api := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	})
	mux := newServer().mux(Source{Tool: "test", API: api})
	if rec := get(t, mux, "/api/jobs"); rec.Code != http.StatusTeapot {
		t.Fatalf("/api/jobs = %d, want handler's %d", rec.Code, http.StatusTeapot)
	}
	bare := newServer().mux(Source{Tool: "test"})
	if rec := get(t, bare, "/api/jobs"); rec.Code != 404 {
		t.Fatalf("/api/jobs without API = %d, want 404", rec.Code)
	}
}
