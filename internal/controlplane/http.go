package controlplane

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"nvmcp/internal/scenario"
)

// SubmitRequest is the POST /api/jobs body: a preset name (with an optional
// scale) or an inline scenario, plus per-job scheduling knobs. The stagger
// and replan fields overlay the scenario's remote spec, so a stock preset
// can be served with drain staggering without editing the preset.
type SubmitRequest struct {
	Preset   string             `json:"preset,omitempty"`
	Scale    string             `json:"scale,omitempty"`
	Scenario *scenario.Scenario `json:"scenario,omitempty"`
	Label    string             `json:"label,omitempty"`
	// Hold parks the granted job until POST /api/jobs/{id}/start; failure
	// events posted while held are injected at virtual t=0, making them
	// exactly as deterministic as scenario-file faults.
	Hold            bool    `json:"hold,omitempty"`
	StaggerMax      int     `json:"stagger_max,omitempty"`
	StaggerSlotSecs float64 `json:"stagger_slot_secs,omitempty"`
	Replan          bool    `json:"replan_on_failure,omitempty"`
}

// maxBody caps every request body the API decodes. The largest checked-in
// scenario is under 1 KiB, so 1 MiB leaves room for any inline scenario
// without letting one request pin the server's memory.
const maxBody = 1 << 20

// CancelRequest is the optional DELETE /api/jobs/{id} body.
type CancelRequest struct {
	Reason string `json:"reason,omitempty"`
}

// apiError is every non-2xx body: a human message plus a machine reason.
type apiError struct {
	Error  string `json:"error"`
	Reason string `json:"reason,omitempty"`
}

// Handler returns the plane's job API, rooted at /api/ — mount it as
// introspect.Source.API so the batch introspection endpoints (/progress,
// /metrics, pprof) and the job surface share one server.
func (pl *Plane) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/plane", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, pl.PlaneStatus())
	})
	mux.HandleFunc("GET /api/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, pl.Jobs())
	})
	mux.HandleFunc("POST /api/jobs", pl.handleSubmit)
	mux.HandleFunc("GET /api/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, ok := jobID(w, r)
		if !ok {
			return
		}
		st, err := pl.Status(id)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("DELETE /api/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, ok := jobID(w, r)
		if !ok {
			return
		}
		// The body is optional, so an empty one (io.EOF) is no reason; a
		// chunked body has no ContentLength and is decoded all the same.
		var req CancelRequest
		if err := decodeBody(w, r, &req); err != nil && err != io.EOF {
			writeBodyErr(w, "cancel body", err)
			return
		}
		if err := pl.Cancel(id, req.Reason); err != nil {
			writeErr(w, err)
			return
		}
		st, err := pl.Status(id)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("POST /api/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		id, ok := jobID(w, r)
		if !ok {
			return
		}
		var spec scenario.FailureSpec
		if err := decodeBody(w, r, &spec); err != nil {
			writeBodyErr(w, "failure spec", err)
			return
		}
		if err := pl.Inject(id, spec); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]string{"status": "queued"})
	})
	mux.HandleFunc("POST /api/jobs/{id}/start", func(w http.ResponseWriter, r *http.Request) {
		id, ok := jobID(w, r)
		if !ok {
			return
		}
		if err := pl.Start(id); err != nil {
			writeErr(w, err)
			return
		}
		st, err := pl.Status(id)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	return mux
}

// handleSubmit resolves the request into a scenario and submits it.
func (pl *Plane) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeBodyErr(w, "submit body", err)
		return
	}
	sc, err := resolveSubmit(&req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	st, err := pl.Submit(sc, SubmitOptions{Label: req.Label, Hold: req.Hold})
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

// resolveSubmit picks the job's scenario (preset or inline) and overlays the
// per-job scheduling knobs.
func resolveSubmit(req *SubmitRequest) (*scenario.Scenario, error) {
	var sc *scenario.Scenario
	switch {
	case req.Preset != "" && req.Scenario != nil:
		return nil, fmt.Errorf("preset and scenario are mutually exclusive")
	case req.Preset != "":
		scaleName := req.Scale
		if scaleName == "" {
			scaleName = "quick"
		}
		scale, err := scenario.ParseScale(scaleName)
		if err != nil {
			return nil, err
		}
		sc, err = scenario.BuildPreset(req.Preset, scale)
		if err != nil {
			return nil, err
		}
	case req.Scenario != nil:
		sc = req.Scenario
	default:
		return nil, fmt.Errorf("submit needs a preset or an inline scenario")
	}
	if req.StaggerMax > 0 {
		sc.Remote.StaggerMax = req.StaggerMax
	}
	if req.StaggerSlotSecs > 0 {
		sc.Remote.StaggerSlotSecs = req.StaggerSlotSecs
	}
	if req.Replan {
		sc.Remote.Replan = true
	}
	return sc, nil
}

// decodeBody decodes one JSON value of r's body, at most maxBody bytes, into
// v. The decode is strict: a misspelled field ("replan" for
// "replan_on_failure", "reasn" for "reason") fails the request rather than
// being silently dropped.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// writeBodyErr answers a failed decodeBody: 413 for a body over maxBody,
// 400 for anything else.
func writeBodyErr(w http.ResponseWriter, what string, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeJSON(w, http.StatusRequestEntityTooLarge, apiError{
			Error:  fmt.Sprintf("%s is over %d bytes", what, tooBig.Limit),
			Reason: "body-too-large",
		})
		return
	}
	writeJSON(w, http.StatusBadRequest, apiError{Error: "bad " + what + ": " + err.Error()})
}

// jobID parses the {id} path segment, answering 400 itself on failure.
func jobID(w http.ResponseWriter, r *http.Request) (int, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad job id: " + r.PathValue("id")})
		return 0, false
	}
	return id, true
}

// writeErr maps plane errors onto status codes: backpressure is 429 (503
// once the plane is closing), unknown jobs 404, commands against finished
// jobs 409, and anything else — scenario validation, failure pre-flight —
// a 400.
func writeErr(w http.ResponseWriter, err error) {
	var rej *RejectError
	switch {
	case errors.As(err, &rej):
		code := http.StatusTooManyRequests
		if rej.Reason == "plane-closed" {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, apiError{Error: rej.Msg, Reason: rej.Reason})
	case errors.Is(err, ErrUnknownJob):
		writeJSON(w, http.StatusNotFound, apiError{Error: err.Error()})
	case errors.Is(err, ErrFinished):
		writeJSON(w, http.StatusConflict, apiError{Error: err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to salvage
}
