// Package controlplane is the resident checkpoint control plane: a service
// that wraps cluster.New/Execute behind an admission queue so many simulated
// application runs share one host. Clients submit checkpoint jobs (a preset
// name or an inline scenario); a scheduler grants them against shared fabric
// budgets and a live checkpoint-window ceiling, applying backpressure —
// reject when the queue is full or a job's demand can never fit, delay while
// the aggregate would breach — and releases queued jobs as headroom recovers.
//
// Every granted job runs its own deterministic simulation on its own
// virtual clock, with a cluster.Control hook ticking it: HTTP handlers never
// touch a live run directly, they queue commands (inject a failure, abort)
// that the tick applies in scheduler context. Because control hooks pin the
// serial engine and ticks mutate nothing, a served run's workload checksum
// is byte-identical to the same scenario run in batch mode.
package controlplane

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"nvmcp/internal/cluster"
	"nvmcp/internal/drift"
	"nvmcp/internal/fault"
	"nvmcp/internal/obs"
	"nvmcp/internal/scenario"
)

// Config shapes the plane's admission policy.
type Config struct {
	// MaxRunning caps concurrently running (or held) jobs (default 2).
	MaxRunning int
	// QueueDepth caps jobs waiting for admission; a submit beyond it is
	// rejected with reason "queue-full" (default 8).
	QueueDepth int
	// FabricBudget caps the aggregate declared remote-drain demand
	// (bytes/sec) across running jobs; 0 means unlimited. A single job
	// whose demand alone exceeds the budget is rejected outright, since
	// no amount of waiting would admit it.
	FabricBudget float64
	// WindowBudget caps the live checkpoint fabric volume (bytes moved in
	// the last cluster.PeakWindow across all running jobs) that admission
	// tolerates; 0 means unlimited. Queued jobs wait with reason
	// "window-slo" while the live load plus the candidate's projected
	// window volume would breach it, and admit as the running jobs'
	// checkpoint bursts drain.
	WindowBudget float64
	// Admission selects what the window check charges: AdmissionDeclared
	// (default) projects each candidate's declared demand against the live
	// window load; AdmissionBurnRate consults running jobs' live SLO
	// error-budget burn (holding admission with reason "slo-burn" while any
	// running job burns budget) and their drift-corrected window forecasts
	// instead of raw fabric reads. Burn-rate mode force-enables the drift
	// observatory on submitted jobs so the forecast exists.
	Admission string
}

// Admission modes.
const (
	AdmissionDeclared = "declared"
	AdmissionBurnRate = "burn-rate"
)

// burnHoldThreshold is the MaxBurn level at which burn-rate admission
// parks queued jobs: half of some objective's breach horizon violating.
const burnHoldThreshold = 0.5

// ParseAdmission validates an admission mode name ("" = declared).
func ParseAdmission(s string) (string, error) {
	switch s {
	case "", AdmissionDeclared:
		return AdmissionDeclared, nil
	case AdmissionBurnRate:
		return AdmissionBurnRate, nil
	}
	return "", fmt.Errorf("controlplane: unknown admission mode %q (valid: %s, %s)",
		s, AdmissionDeclared, AdmissionBurnRate)
}

func (c Config) admission() string {
	if c.Admission == AdmissionBurnRate {
		return AdmissionBurnRate
	}
	return AdmissionDeclared
}

func (c Config) maxRunning() int {
	if c.MaxRunning < 1 {
		return 2
	}
	return c.MaxRunning
}

func (c Config) queueDepth() int {
	if c.QueueDepth < 1 {
		return 8
	}
	return c.QueueDepth
}

// readmitTick is the host-side re-admission poll interval: how often the
// scheduler re-reads live window load for jobs parked on "window-slo" or
// "fabric-budget".
const readmitTick = 25 * time.Millisecond

// State is a job's lifecycle phase.
type State string

const (
	// StateQueued: admitted to the queue, waiting for a grant.
	StateQueued State = "queued"
	// StateHeld: granted a slot but waiting for an explicit /start —
	// the deterministic window for pre-run failure injection.
	StateHeld State = "held"
	// StateRunning: the simulation is executing.
	StateRunning State = "running"
	// StateDone / StateFailed / StateCanceled are terminal.
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// ErrUnknownJob is returned for an id the plane has never issued.
var ErrUnknownJob = errors.New("controlplane: unknown job")

// ErrFinished is returned when a command targets a terminal job.
var ErrFinished = errors.New("controlplane: job already finished")

// RejectError is admission backpressure: the submit was refused, with a
// machine-readable reason ("queue-full", "demand-exceeds-budget",
// "plane-closed").
type RejectError struct {
	Reason string
	Msg    string
}

func (e *RejectError) Error() string {
	return fmt.Sprintf("controlplane: rejected (%s): %s", e.Reason, e.Msg)
}

// command is one queued control action, applied to the live run by the
// cluster.Control tick in scheduler context.
type command struct {
	inject *fault.Event
	abort  string
}

// Job is one submitted checkpoint run. All mutable fields are guarded by
// the plane's mutex.
type Job struct {
	ID       int
	Label    string
	Scenario *scenario.Scenario
	// Demand is the job's declared fabric demand in bytes/sec: the
	// resolved remote-drain rate cap times the node count (falling back
	// to per-node link bandwidth when the drain is uncapped).
	Demand float64

	state       State
	reason      string
	waitReason  string
	hold        bool
	canceled    bool
	notes       []string
	pending     []command
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time

	cluster *cluster.Cluster
	res     cluster.Result
	haveRes bool

	startOnce sync.Once
	started   chan struct{}
	done      chan struct{}
}

// releaseStart releases a held job into execution (idempotent).
func (j *Job) releaseStart() {
	j.startOnce.Do(func() { close(j.started) })
}

// SubmitOptions tune one submission.
type SubmitOptions struct {
	// Label is a free-form client tag echoed in status.
	Label string
	// Hold parks the job after its grant until Start — commands queued
	// while held are applied at virtual t=0, making mid-run injections
	// deterministic with respect to the run.
	Hold bool
}

// Plane is the resident scheduler.
type Plane struct {
	cfg Config

	mu            sync.Mutex
	jobs          map[int]*Job
	order         []int
	queue         []*Job
	nextID        int
	running       int
	runningDemand float64
	rejected      int
	closed        bool

	ticker   *time.Ticker
	tickStop chan struct{}
	tickDone chan struct{}
}

// New starts a plane: the re-admission ticker is live until Close.
func New(cfg Config) *Plane {
	pl := &Plane{
		cfg:      cfg,
		jobs:     make(map[int]*Job),
		ticker:   time.NewTicker(readmitTick),
		tickStop: make(chan struct{}),
		tickDone: make(chan struct{}),
	}
	go func() {
		defer close(pl.tickDone)
		for {
			select {
			case <-pl.ticker.C:
				pl.pump()
			case <-pl.tickStop:
				return
			}
		}
	}()
	return pl
}

// Submit validates the scenario, applies admission control, and — when
// admitted — queues the job for a grant. The returned status reflects the
// post-pump state, so an immediately grantable job already reads as running
// (or held).
func (pl *Plane) Submit(sc *scenario.Scenario, opts SubmitOptions) (JobStatus, error) {
	cfg, err := cluster.FromScenario(sc)
	if err != nil {
		return JobStatus{}, err
	}
	// The control hooks pin the serial engine anyway; pinning explicitly
	// keeps the event stream free of fallback warnings and byte-identical
	// to a plain batch run of the same scenario.
	cfg.Shards = 1
	if pl.cfg.admission() == AdmissionBurnRate && cfg.Drift == nil {
		// Burn-rate admission steers on each run's drift-corrected window
		// forecast, so the observatory must be live even for scenarios that
		// declare no drift limits of their own.
		cfg.Drift = &drift.Config{Enabled: true}
	}
	demand := declaredDemand(cfg)
	if pl.cfg.FabricBudget > 0 && demand > pl.cfg.FabricBudget {
		return JobStatus{}, &RejectError{
			Reason: "demand-exceeds-budget",
			Msg: fmt.Sprintf("job demands %.0f B/s, fabric budget is %.0f B/s",
				demand, pl.cfg.FabricBudget),
		}
	}

	j := &Job{
		Label:    opts.Label,
		Scenario: sc,
		Demand:   demand,
		state:    StateQueued,
		hold:     opts.Hold,
		started:  make(chan struct{}),
		done:     make(chan struct{}),
	}
	cfg.Control = &cluster.Control{
		OnStart: func(c *cluster.Cluster) { pl.applyCommands(j, c) },
		OnTick:  func(c *cluster.Cluster, _ time.Duration) { pl.applyCommands(j, c) },
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return JobStatus{}, err
	}
	j.cluster = c

	pl.mu.Lock()
	if pl.closed {
		pl.mu.Unlock()
		return JobStatus{}, &RejectError{Reason: "plane-closed", Msg: "the plane is shutting down"}
	}
	if len(pl.queue) >= pl.cfg.queueDepth() {
		pl.rejected++
		pl.mu.Unlock()
		return JobStatus{}, &RejectError{
			Reason: "queue-full",
			Msg: fmt.Sprintf("%d jobs already queued (depth %d)",
				len(pl.queue), pl.cfg.queueDepth()),
		}
	}
	pl.nextID++
	j.ID = pl.nextID
	j.submittedAt = time.Now()
	pl.jobs[j.ID] = j
	pl.order = append(pl.order, j.ID)
	pl.queue = append(pl.queue, j)
	pl.mu.Unlock()

	pl.pump()
	st, _ := pl.Status(j.ID)
	return st, nil
}

// declaredDemand estimates a job's steady fabric appetite: the remote tier's
// resolved per-node drain rate times the node count. An uncapped drain can
// burst at link speed, so the per-node link bandwidth is the fallback;
// a job with no remote tier declares zero.
func declaredDemand(cfg cluster.Config) float64 {
	if cfg.Remote == "" || cfg.Remote == "none" {
		return 0
	}
	rate := cfg.RemoteRateCap
	if rate <= 0 {
		rate = cfg.LinkBW
	}
	if rate <= 0 {
		return 0
	}
	return rate * float64(cfg.Nodes)
}

// pump grants queued jobs in FIFO order while the admission checks pass.
// The head blocking preserves submission order: a small job never jumps a
// large one that is still waiting for budget.
func (pl *Plane) pump() {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	burnMode := pl.cfg.admission() == AdmissionBurnRate
	for len(pl.queue) > 0 {
		j := pl.queue[0]
		windowLoad := pl.liveWindowLoadLocked
		if burnMode {
			windowLoad = pl.forecastWindowLoadLocked
		}
		switch {
		case pl.running >= pl.cfg.maxRunning():
			j.waitReason = "max-running"
			return
		case pl.cfg.FabricBudget > 0 && pl.running > 0 &&
			pl.runningDemand+j.Demand > pl.cfg.FabricBudget:
			j.waitReason = "fabric-budget"
			return
		case burnMode && pl.running > 0 && pl.maxBurnLocked() >= burnHoldThreshold:
			j.waitReason = "slo-burn"
			return
		case pl.cfg.WindowBudget > 0 && pl.running > 0 &&
			windowLoad()+j.Demand*cluster.PeakWindow.Seconds() > pl.cfg.WindowBudget:
			j.waitReason = "window-slo"
			return
		}
		pl.queue = pl.queue[1:]
		j.waitReason = ""
		pl.running++
		pl.runningDemand += j.Demand
		if j.hold {
			j.state = StateHeld
		} else {
			j.state = StateRunning
			j.releaseStart()
		}
		go pl.runJob(j)
	}
}

// liveWindowLoadLocked sums, over every running job, the checkpoint bytes
// its fabric moved in the trailing cluster.PeakWindow of *its* virtual
// clock — the live quantity the ckpt_window_bytes SLO watches. Reads go
// through the observer's mutex-guarded progress timestamp, never a
// simulation clock, so this is safe from the host side of a live run.
func (pl *Plane) liveWindowLoadLocked() float64 {
	var sum float64
	for _, j := range pl.jobs {
		if j.state != StateRunning || j.cluster == nil {
			continue
		}
		sum += liveWindowBytes(j.cluster)
	}
	return sum
}

// forecastWindowLoadLocked is the burn-rate variant of the window check: it
// charges each running job its drift observatory's per-window bytes forecast
// (the larger of the §III model's prediction and the last measured window,
// both corrected by live estimator state) instead of a raw fabric read. Runs
// whose observatory has not closed a window yet fall back to the live read.
func (pl *Plane) forecastWindowLoadLocked() float64 {
	var sum float64
	for _, j := range pl.jobs {
		if j.state != StateRunning || j.cluster == nil {
			continue
		}
		if d := j.cluster.Drift; d != nil {
			if fc, ok := d.ForecastWindowBytes(); ok {
				sum += fc
				continue
			}
		}
		sum += liveWindowBytes(j.cluster)
	}
	return sum
}

// maxBurnLocked is the worst live SLO error-budget burn fraction across
// running jobs; runs without a flight recorder contribute zero.
func (pl *Plane) maxBurnLocked() float64 {
	var burn float64
	for _, j := range pl.jobs {
		if j.state != StateRunning || j.cluster == nil || j.cluster.SLO == nil {
			continue
		}
		if b := j.cluster.SLO.MaxBurn(); b > burn {
			burn = b
		}
	}
	return burn
}

// liveWindowBytes reads one run's trailing-window checkpoint fabric volume.
func liveWindowBytes(c *cluster.Cluster) float64 {
	tus, _ := c.Obs.Progress()
	now := time.Duration(tus) * time.Microsecond
	tl := c.Obs.Registry().Timeline("fabric_bytes", obs.Labels{"class": "ckpt"})
	cur := tl.At(now)
	var prev float64
	if now > cluster.PeakWindow {
		prev = tl.At(now - cluster.PeakWindow)
	}
	return cur - prev
}

// runJob owns one admission slot from grant to terminal state.
func (pl *Plane) runJob(j *Job) {
	<-j.started
	pl.mu.Lock()
	if j.canceled {
		pl.finishLocked(j, StateCanceled, nonEmpty(j.reason, "canceled before start"))
		pl.releaseSlotLocked(j)
		pl.mu.Unlock()
		close(j.done)
		pl.pump()
		return
	}
	j.state = StateRunning
	j.startedAt = time.Now()
	c := j.cluster
	pl.mu.Unlock()

	res, err := c.Execute()

	pl.mu.Lock()
	j.res = res
	j.haveRes = true
	switch {
	case err == nil:
		pl.finishLocked(j, StateDone, "")
	case c.Aborted() != "" && j.canceled:
		pl.finishLocked(j, StateCanceled, c.Aborted())
	default:
		pl.finishLocked(j, StateFailed, err.Error())
	}
	pl.releaseSlotLocked(j)
	pl.mu.Unlock()
	close(j.done)
	pl.pump()
}

func (pl *Plane) finishLocked(j *Job, s State, reason string) {
	j.state = s
	j.reason = reason
	j.finishedAt = time.Now()
}

func (pl *Plane) releaseSlotLocked(j *Job) {
	pl.running--
	pl.runningDemand -= j.Demand
}

// applyCommands drains the job's command queue inside the simulation (the
// Control tick calls it in scheduler context). Injection errors that slip
// past the HTTP pre-flight become job notes rather than run failures.
func (pl *Plane) applyCommands(j *Job, c *cluster.Cluster) {
	pl.mu.Lock()
	cmds := j.pending
	j.pending = nil
	pl.mu.Unlock()
	for _, cmd := range cmds {
		switch {
		case cmd.abort != "":
			c.Abort(cmd.abort)
		case cmd.inject != nil:
			if err := c.Inject(*cmd.inject); err != nil {
				pl.mu.Lock()
				j.notes = append(j.notes, fmt.Sprintf("inject dropped: %v", err))
				pl.mu.Unlock()
			}
		}
	}
}

// Start releases a held job (idempotent; a no-op for jobs already running).
func (pl *Plane) Start(id int) error {
	pl.mu.Lock()
	j, ok := pl.jobs[id]
	if !ok {
		pl.mu.Unlock()
		return ErrUnknownJob
	}
	if j.state.Terminal() {
		pl.mu.Unlock()
		return ErrFinished
	}
	j.hold = false
	if j.state == StateHeld {
		j.state = StateRunning
	}
	pl.mu.Unlock()
	j.releaseStart()
	pl.pump()
	return nil
}

// Cancel stops a job: a queued job leaves the queue immediately; a held or
// running one gets an abort command that the next control tick applies, so
// the simulation tears down cleanly and its artifacts stay readable.
func (pl *Plane) Cancel(id int, reason string) error {
	pl.mu.Lock()
	j, ok := pl.jobs[id]
	if !ok {
		pl.mu.Unlock()
		return ErrUnknownJob
	}
	if j.state.Terminal() {
		pl.mu.Unlock()
		return ErrFinished
	}
	reason = nonEmpty(reason, "canceled by client")
	switch j.state {
	case StateQueued:
		for i, q := range pl.queue {
			if q == j {
				pl.queue = append(pl.queue[:i], pl.queue[i+1:]...)
				break
			}
		}
		pl.finishLocked(j, StateCanceled, reason)
		pl.mu.Unlock()
		close(j.done)
		pl.pump()
		return nil
	default: // held or running
		j.canceled = true
		j.reason = reason
		j.pending = append(j.pending, command{abort: reason})
		held := j.state == StateHeld
		pl.mu.Unlock()
		if held {
			j.releaseStart()
		}
		return nil
	}
}

// Inject queues one failure event for a live job; the next control tick
// schedules it on the run's virtual clock (held jobs apply it at t=0, so a
// pre-start injection is exactly as deterministic as a scenario-file fault).
func (pl *Plane) Inject(id int, spec scenario.FailureSpec) error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	j, ok := pl.jobs[id]
	if !ok {
		return ErrUnknownJob
	}
	if j.state.Terminal() {
		return ErrFinished
	}
	ev, err := spec.Event()
	if err != nil {
		return err
	}
	if err := j.cluster.ValidateFailure(ev); err != nil {
		return err
	}
	j.pending = append(j.pending, command{inject: &ev})
	return nil
}

// Close drains the plane: queued jobs are canceled, held and running ones
// aborted, and the call returns once every job reaches a terminal state.
func (pl *Plane) Close() {
	pl.mu.Lock()
	if pl.closed {
		pl.mu.Unlock()
		<-pl.tickDone
		return
	}
	pl.closed = true
	var wait []*Job
	for _, q := range pl.queue {
		pl.finishLocked(q, StateCanceled, "plane shutdown")
		close(q.done)
	}
	pl.queue = nil
	for _, j := range pl.jobs {
		if j.state == StateHeld || j.state == StateRunning {
			j.canceled = true
			if j.reason == "" {
				j.reason = "plane shutdown"
			}
			j.pending = append(j.pending, command{abort: "plane shutdown"})
			j.releaseStart()
			wait = append(wait, j)
		}
	}
	pl.mu.Unlock()
	close(pl.tickStop)
	pl.ticker.Stop()
	<-pl.tickDone
	for _, j := range wait {
		<-j.done
	}
}

func nonEmpty(s, fallback string) string {
	if s != "" {
		return s
	}
	return fallback
}
