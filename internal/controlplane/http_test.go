package controlplane

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func apiRig(t *testing.T, cfg Config) (*Plane, *httptest.Server) {
	t.Helper()
	pl := New(cfg)
	srv := httptest.NewServer(pl.Handler())
	t.Cleanup(func() {
		srv.Close()
		pl.Close()
	})
	return pl, srv
}

func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func TestAPISubmitQueryLifecycle(t *testing.T) {
	pl, srv := apiRig(t, Config{})
	_ = pl

	var st JobStatus
	code := doJSON(t, "POST", srv.URL+"/api/jobs",
		SubmitRequest{Preset: "quick", Scale: "tiny", Label: "via-http"}, &st)
	if code != http.StatusAccepted {
		t.Fatalf("submit code = %d, want 202", code)
	}
	if st.ID == 0 || st.Label != "via-http" {
		t.Fatalf("submit status = %+v", st)
	}

	deadline := time.Now().Add(pollTimeout)
	for !st.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(10 * time.Millisecond)
		if code := doJSON(t, "GET", fmt.Sprintf("%s/api/jobs/%d", srv.URL, st.ID), nil, &st); code != 200 {
			t.Fatalf("query code = %d", code)
		}
	}
	if st.State != StateDone || st.Result == nil || st.Result.WorkloadChecksum == "" {
		t.Fatalf("finished job = %+v", st)
	}

	var list []JobStatus
	if code := doJSON(t, "GET", srv.URL+"/api/jobs", nil, &list); code != 200 || len(list) != 1 {
		t.Fatalf("list code=%d len=%d", code, len(list))
	}
	var ps PlaneStatus
	if code := doJSON(t, "GET", srv.URL+"/api/plane", nil, &ps); code != 200 || ps.Done != 1 {
		t.Fatalf("plane code=%d status=%+v", code, ps)
	}

	// Error surface: bad body 400, unknown job 404, command on done 409.
	if code := doJSON(t, "POST", srv.URL+"/api/jobs", map[string]int{"preset": 3}, nil); code != 400 {
		t.Fatalf("bad submit code = %d, want 400", code)
	}
	if code := doJSON(t, "GET", srv.URL+"/api/jobs/42", nil, nil); code != 404 {
		t.Fatalf("unknown job code = %d, want 404", code)
	}
	if code := doJSON(t, "DELETE", fmt.Sprintf("%s/api/jobs/%d", srv.URL, st.ID), nil, nil); code != 409 {
		t.Fatalf("cancel done code = %d, want 409", code)
	}
}

func TestAPIQueueFullRejectsWith429(t *testing.T) {
	_, srv := apiRig(t, Config{MaxRunning: 1, QueueDepth: 1})

	var held JobStatus
	doJSON(t, "POST", srv.URL+"/api/jobs", SubmitRequest{Preset: "quick", Scale: "tiny", Hold: true}, &held)
	doJSON(t, "POST", srv.URL+"/api/jobs", SubmitRequest{Preset: "quick", Scale: "tiny"}, nil)

	var apiErr apiError
	code := doJSON(t, "POST", srv.URL+"/api/jobs", SubmitRequest{Preset: "quick", Scale: "tiny"}, &apiErr)
	if code != http.StatusTooManyRequests || apiErr.Reason != "queue-full" {
		t.Fatalf("overflow submit: code=%d body=%+v, want 429/queue-full", code, apiErr)
	}
}

func TestAPIHeldInjectionThenStart(t *testing.T) {
	_, srv := apiRig(t, Config{})

	var st JobStatus
	doJSON(t, "POST", srv.URL+"/api/jobs", SubmitRequest{Preset: "quick", Scale: "tiny", Hold: true}, &st)
	if st.State != StateHeld {
		t.Fatalf("state = %s, want held", st.State)
	}
	base := fmt.Sprintf("%s/api/jobs/%d", srv.URL, st.ID)

	if code := doJSON(t, "POST", base+"/events",
		map[string]any{"at_secs": 1, "node": 0}, nil); code != http.StatusAccepted {
		t.Fatalf("inject code = %d, want 202", code)
	}
	// Invalid specs fail the request, not the run.
	var apiErr apiError
	if code := doJSON(t, "POST", base+"/events",
		map[string]any{"at_secs": 1, "node": 99}, &apiErr); code != 400 {
		t.Fatalf("bad inject code = %d (%+v), want 400", code, apiErr)
	}
	if code := doJSON(t, "POST", base+"/start", nil, &st); code != 200 {
		t.Fatalf("start code = %d", code)
	}

	deadline := time.Now().Add(pollTimeout)
	for !st.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(10 * time.Millisecond)
		doJSON(t, "GET", base, nil, &st)
	}
	if st.State != StateDone || st.Result.FailuresInjected != 1 || st.Result.RecoveryLost != 0 {
		t.Fatalf("finished = %s, result = %+v; want done with 1 injected failure, 0 lost", st.State, st.Result)
	}
}

// TestAPIInjectRejectsHardKindConflict holds live injection to the rule a
// scenario file obeys: a failure that sets hard but names another kind is
// refused, not run as that other kind.
func TestAPIInjectRejectsHardKindConflict(t *testing.T) {
	_, srv := apiRig(t, Config{})

	var st JobStatus
	doJSON(t, "POST", srv.URL+"/api/jobs", SubmitRequest{Preset: "quick", Scale: "tiny", Hold: true}, &st)
	var apiErr apiError
	code := doJSON(t, "POST", fmt.Sprintf("%s/api/jobs/%d/events", srv.URL, st.ID),
		map[string]any{"at_secs": 1, "node": 0, "hard": true, "kind": "soft"}, &apiErr)
	if code != http.StatusBadRequest || !strings.Contains(apiErr.Error, "sets hard but kind") {
		t.Fatalf("hard+soft inject: code=%d body=%+v, want 400 naming the conflict", code, apiErr)
	}
}

// TestAPIConcurrentSubmitQueryCancel hammers the API from many goroutines —
// the regression surface for lock ordering between HTTP handlers, the
// admission pump, and the in-simulation control ticks. Run under -race.
func TestAPIConcurrentSubmitQueryCancel(t *testing.T) {
	pl, srv := apiRig(t, Config{MaxRunning: 2, QueueDepth: 64})

	const submitters = 4
	const jobsEach = 3
	var wg sync.WaitGroup
	ids := make(chan int, submitters*jobsEach)
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < jobsEach; i++ {
				var st JobStatus
				code := doJSON(t, "POST", srv.URL+"/api/jobs",
					SubmitRequest{Preset: "quick", Scale: "tiny",
						Label: fmt.Sprintf("s%d-%d", s, i), Hold: i%2 == 0}, &st)
				if code != http.StatusAccepted {
					t.Errorf("submit code = %d", code)
					return
				}
				ids <- st.ID
			}
		}(s)
	}

	stop := make(chan struct{})
	var pollers sync.WaitGroup
	for p := 0; p < 3; p++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					doJSON(t, "GET", srv.URL+"/api/jobs", nil, nil)
					doJSON(t, "GET", srv.URL+"/api/plane", nil, nil)
				}
			}
		}()
	}

	wg.Wait()
	close(ids)
	rng := rand.New(rand.NewSource(7))
	for id := range ids {
		base := fmt.Sprintf("%s/api/jobs/%d", srv.URL, id)
		switch rng.Intn(3) {
		case 0:
			doJSON(t, "DELETE", base, CancelRequest{Reason: "churn"}, nil)
		case 1:
			doJSON(t, "POST", base+"/start", nil, nil)
		}
		// The rest run (or wait) to completion on their own; held jobs
		// that were neither started nor canceled drain at Close.
	}
	close(stop)
	pollers.Wait()

	pl.Close()
	for _, st := range pl.Jobs() {
		if !st.State.Terminal() {
			t.Errorf("job %d (%s) ended non-terminal: %s", st.ID, st.Label, st.State)
		}
	}
}
