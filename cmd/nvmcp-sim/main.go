// Command nvmcp-sim runs one configurable cluster simulation: load a
// declarative scenario file, pick a named preset, or compose a run from
// flags — machine shape, workload, checkpoint policies for all three levels
// (local pre-copy, remote tier, bottom storage), and optional failure
// injection — and get the run's timing, data-movement, and recovery summary.
//
// Every policy is named: the -local/-remote/-bottom flags and the
// corresponding scenario fields resolve through the internal/policy name
// tables, so flags and scenario files share one set of names.
//
// With lineage tracing on, the finished run answers causal queries: which
// tiers a chunk moved through (-chunk), everything a tier touched (-tier),
// any invariant violations (-violations), and the full causal chain behind a
// recovery (-why). -trace-out renders the run's Chrome/Perfetto timeline.
//
// Examples:
//
//	nvmcp-sim -preset fig7 -scale quick
//	nvmcp-sim -scenario docs/scenarios/erasure-remote.json
//	nvmcp-sim -app gtc -nodes 4 -cores 12 -iters 4 -local dcpcp
//	nvmcp-sim -app cm1 -remote buddy-precopy -remote-every 2 -fail-at 30s -fail-kind hard
//	nvmcp-sim -app lammps-rhodo -remote buddy-precopy -trace-out trace.json
//	nvmcp-sim -preset faults -scale tiny -why rank2/scalar-5@1 -chunk rank0/field3d-0 -violations
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"nvmcp/internal/cluster"
	"nvmcp/internal/controlplane"
	"nvmcp/internal/drift"
	"nvmcp/internal/introspect"
	"nvmcp/internal/lineage"
	"nvmcp/internal/obs"
	"nvmcp/internal/policy"
	"nvmcp/internal/report"
	"nvmcp/internal/scenario"
	"nvmcp/internal/slo"
	"nvmcp/internal/stress"
)

func main() {
	var (
		scenarioPath = flag.String("scenario", "", "run a declarative scenario JSON file")
		presetName   = flag.String("preset", "", "run a named preset (see -list-presets)")
		listPresets  = flag.Bool("list-presets", false, "list preset ids with descriptions and exit")
		scaleName    = flag.String("scale", "quick", "preset scale: tiny, quick, or paper")

		appName      = flag.String("app", "gtc", "workload: gtc, lammps-rhodo, cm1, or amr")
		nodes        = flag.Int("nodes", 2, "cluster nodes")
		cores        = flag.Int("cores", 4, "cores (ranks) per node")
		iters        = flag.Int("iters", 4, "compute iterations (one local checkpoint each)")
		ckptMB       = flag.Float64("ckpt-mb", 120, "checkpoint data per rank in MB (0 = workload natural size)")
		iterSecs     = flag.Float64("iter-secs", 10, "compute seconds per iteration")
		nvmBW        = flag.Float64("nvm-bw", 400e6, "effective NVM write bandwidth per core, bytes/sec (0 = Table I PCM)")
		linkBW       = flag.Float64("link-bw", 250e6, "per-node link bandwidth, bytes/sec (0 = 40Gbps IB)")
		local        = flag.String("local", "dcpcp", "local pre-copy policy: "+strings.Join(policy.Names(policy.KindLocal), ", "))
		localEvery   = flag.Int("local-every", 1, "local checkpoint every N-th iteration")
		forceFull    = flag.Bool("forcefull", false, "disable dirty tracking (classic full checkpoints)")
		noCkpt       = flag.Bool("no-ckpt", false, "disable checkpointing entirely (ideal run)")
		remoteName   = flag.String("remote", "none", "remote tier policy: "+strings.Join(policy.Names(policy.KindRemote), ", "))
		remoteEvery  = flag.Int("remote-every", 2, "remote checkpoint every K-th local checkpoint")
		remoteRate   = flag.Float64("remote-rate", 0, "remote shipping rate cap, bytes/sec (0 = uncapped)")
		remoteAuto   = flag.Bool("remote-auto-rate", true, "derive the remote rate cap from the workload (2·D·cores per interval)")
		bottomName   = flag.String("bottom", "none", "bottom storage policy: "+strings.Join(policy.Names(policy.KindBottom), ", "))
		failAt       = flag.Duration("fail-at", 0, "inject a failure at this virtual time (0 = none)")
		failNode     = flag.Int("fail-node", 0, "node that fails")
		failKind     = flag.String("fail-kind", "", "failure kind: soft, hard, nvm-corrupt, link-flap, buddy-loss")
		failChunks   = flag.Int("fail-chunks", 0, "nvm-corrupt: committed chunks to damage (0 = 1)")
		failTorn     = flag.Bool("fail-torn", false, "nvm-corrupt: torn writes instead of bit-flips")
		failDuration = flag.Duration("fail-duration", 0, "link-flap: outage length")
		failFactor   = flag.Float64("fail-factor", 0, "link-flap: residual bandwidth fraction in [0,1)")
		lineageOn    = flag.Bool("lineage", false, "trace per-chunk causal lineage (report summary + /lineage endpoints)")
		invariants   = flag.Bool("invariants", false, "run the online lineage invariant checker; violations fail the run (implies -lineage)")
		chunkKey     = flag.String("chunk", "", "print this chunk's lineage history, key like rank2/scalar-5 (implies -lineage)")
		tierName     = flag.String("tier", "", "print the lineage of every chunk that touched this tier: dram, local, remote, bottom (implies -lineage)")
		violations   = flag.Bool("violations", false, "print lineage invariant violations found during the run (implies -lineage)")
		whyQuery     = flag.String("why", "", "explain a recovery causally: <chunk>@<epoch>, bare <chunk> = newest epoch (implies -lineage)")
		sloOn        = flag.Bool("slo", false, "record SLO flight-recorder time series (report summary + /slo endpoints)")
		sloStrict    = flag.Bool("slo-strict", false, "fail the run on the first SLO objective breach (implies -slo)")
		sloReportOut = flag.String("slo-report-out", "", "write the SLO run report to <path>.html and <path>.json (implies -slo)")
		driftOn      = flag.Bool("drift", false, "record the model-drift observatory: §III predictions vs measured series (report summary + /drift endpoints)")
		driftStrict  = flag.Bool("drift-strict", false, "fail the run on the first drift limit breach (implies -drift)")
		driftOut     = flag.String("drift-report-out", "", "write the model-drift report to <path>.html and <path>.json (implies -drift)")
		stressOut    = flag.String("stress-report-out", "", "write the run's stress report (survivability + MTTR/availability cell) to <path>.html and <path>.json")
		shardsFlag   = flag.Int("shards", 0, "event-engine shards, capped by the topology (0 = as the scenario says, serial by default; 1 = serial engine)")
		sweepPath    = flag.String("sweep", "", "run every cell of a sweep JSON file sequentially")
		serveMode    = flag.Bool("serve", false, "resident control-plane mode: serve the job API on -http and run submitted scenarios")
		serveRunning = flag.Int("serve-max-running", 2, "serve: max concurrently running jobs")
		serveQueue   = flag.Int("serve-queue", 8, "serve: max queued jobs before submissions are rejected")
		serveFabric  = flag.Float64("serve-fabric-budget", 0, "serve: aggregate declared remote-drain demand across running jobs, bytes/sec (0 = unlimited)")
		serveWindow  = flag.Float64("serve-window-budget", 0, "serve: live ckpt fabric bytes per 5s window across running jobs (0 = unlimited)")
		serveAdmit   = flag.String("serve-admission", "declared", "serve: admission mode: declared (projected demand) or burn-rate (live SLO burn + drift window forecasts)")
		httpAddr     = flag.String("http", "", "serve live introspection (/healthz /metrics /progress /lineage, pprof) on this address, e.g. :8080")
		httpHold     = flag.Bool("http-hold", false, "keep the introspection server up after the run until interrupted")
		eventsOut    = flag.String("events-out", "", "write the typed event log as JSONL to this file")
		metricsOut   = flag.String("metrics-out", "", "write metrics in Prometheus text format to this file")
		traceOut     = flag.String("trace-out", "", "write a Chrome/Perfetto trace-event timeline to this file")
		reportOut    = flag.String("report-out", "", "write the end-of-run report JSON to this file")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile of the run (cluster set-up through Execute) to this file")
		memProfile   = flag.String("memprofile", "", "write a heap profile to this file after the run, while the finished cluster is still reachable")
	)
	flag.Parse()

	if (*cpuProfile != "" || *memProfile != "") && (*sweepPath != "" || *serveMode) {
		fmt.Fprintln(os.Stderr, "nvmcp-sim: -cpuprofile and -memprofile profile one run; not with -sweep or -serve")
		os.Exit(2)
	}

	if *listPresets {
		printPresets(os.Stdout, *scaleName)
		return
	}
	if *sweepPath != "" {
		os.Exit(runSweep(*sweepPath, *sloStrict, *driftStrict, *sloReportOut))
	}
	if *serveMode {
		admission, err := controlplane.ParseAdmission(*serveAdmit)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nvmcp-sim: %v\n", err)
			os.Exit(2)
		}
		os.Exit(runServe(*httpAddr, controlplane.Config{
			MaxRunning:   *serveRunning,
			QueueDepth:   *serveQueue,
			FabricBudget: *serveFabric,
			WindowBudget: *serveWindow,
			Admission:    admission,
		}))
	}

	sc, err := resolveScenario(*scenarioPath, *presetName, *scaleName, func() *scenario.Scenario {
		sc := &scenario.Scenario{
			Name:         "cli",
			Nodes:        *nodes,
			CoresPerNode: *cores,
			NVMPerCoreBW: *nvmBW,
			LinkBW:       *linkBW,
			Workload: scenario.WorkloadSpec{
				App:      *appName,
				CkptMB:   *ckptMB,
				IterSecs: *iterSecs,
			},
			Iterations: *iters,
			Local: scenario.LocalSpec{
				Policy:    *local,
				Every:     *localEvery,
				ForceFull: *forceFull,
			},
			Remote: scenario.RemoteSpec{
				Policy:      *remoteName,
				RateCap:     *remoteRate,
				AutoRateCap: *remoteRate == 0 && *remoteAuto,
				Every:       *remoteEvery,
			},
			Bottom:       scenario.BottomSpec{Policy: *bottomName},
			NoCheckpoint: *noCkpt,
			PayloadCap:   2048,
		}
		if *failAt > 0 {
			sc.Failures = []scenario.FailureSpec{{
				AtSecs: failAt.Seconds(), Node: *failNode,
				Kind: *failKind, Chunks: *failChunks, Torn: *failTorn,
				DurationSecs: failDuration.Seconds(), Factor: *failFactor,
			}}
		}
		return sc
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "nvmcp-sim: %v\n", err)
		os.Exit(2)
	}

	cfg, err := cluster.FromScenario(sc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nvmcp-sim: %v\n", err)
		os.Exit(2)
	}
	if *shardsFlag != 0 {
		cfg.Shards = *shardsFlag
	}
	queried := *chunkKey != "" || *tierName != "" || *violations || *whyQuery != ""
	if *lineageOn || *invariants || queried {
		cfg.Lineage = &lineage.Config{Enabled: true, Strict: *invariants}
	}
	// A scenario with an slo block arrives here already enabled (via
	// FromScenario); the flags turn recording on for bare runs and make
	// breaches fatal.
	if (*sloOn || *sloStrict || *sloReportOut != "") && cfg.SLO == nil {
		cfg.SLO = &slo.Config{Enabled: true, Spec: sc.SLO}
	}
	if cfg.SLO != nil && *sloStrict {
		cfg.SLO.Strict = true
	}
	// Same shape for the drift observatory: a scenario with a drift block is
	// already enabled, the flags cover bare runs and make breaches fatal.
	if (*driftOn || *driftStrict || *driftOut != "") && cfg.Drift == nil {
		cfg.Drift = &drift.Config{Enabled: true}
		if sc.Drift != nil {
			cfg.Drift.Spec = *sc.Drift
		}
	}
	if cfg.Drift != nil && *driftStrict {
		cfg.Drift.Strict = true
	}

	prof, err := introspect.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nvmcp-sim: %v\n", err)
		os.Exit(2)
	}
	c, err := cluster.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nvmcp-sim: %v\n", err)
		os.Exit(2)
	}
	// Only runs that render a timeline attach the trace tap.
	var trace *cluster.ChromeTrace
	if *traceOut != "" {
		trace = c.ChromeTrace()
	}
	var status atomic.Value
	status.Store("running")
	if *httpAddr != "" {
		srv, err := introspect.Serve(*httpAddr, introspect.Source{
			Obs:     c.Obs,
			Lineage: c.Lineage,
			SLO:     c.SLO,
			Drift:   c.Drift,
			Tool:    "nvmcp-sim",
			Status:  func() string { return status.Load().(string) },
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "nvmcp-sim: %v\n", err)
			os.Exit(2)
		}
		defer func() {
			if err := srv.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "nvmcp-sim: %v\n", err)
			}
		}()
		fmt.Printf("introspection listening on http://%s (try /progress, /metrics, /lineage)\n", srv.Addr())
	}

	res, err := c.Execute()
	status.Store("done")
	if perr := prof.Stop(c); perr != nil {
		fmt.Fprintf(os.Stderr, "nvmcp-sim: %v\n", perr)
		os.Exit(1)
	}
	if err != nil {
		// A strict breach still leaves a sealed recorder behind — write the
		// reports first so the failing run can be inspected, then fail.
		writeSLOReport(*sloReportOut, c, sc)
		writeDriftReport(*driftOut, c, sc)
		fmt.Fprintf(os.Stderr, "nvmcp-sim: %v\n", err)
		os.Exit(1)
	}

	remoteOn := c.RemoteTier() != nil
	fmt.Printf("nvmcp-sim: %s (%s) on %dx%d ranks, %s/rank, local=%s remote=%s bottom=%s\n",
		cfg.App.Name, sc.Name, cfg.Nodes, cfg.CoresPerNode,
		report.FmtBytes(float64(cfg.App.CheckpointSize())),
		policyName(cfg.Local), policyName(cfg.Remote), policyName(cfg.Bottom))
	tb := &report.Table{Header: []string{"metric", "value"}}
	tb.AddRow("execution time", res.ExecTime.Round(time.Millisecond).String())
	tb.AddRow("local checkpoints", fmt.Sprintf("%d", res.LocalCkpts))
	tb.AddRow("remote checkpoints", fmt.Sprintf("%d", res.RemoteCkpts))
	tb.AddRow("ckpt blocking per rank", res.CkptTimePerRank.Round(time.Millisecond).String())
	tb.AddRow("data to NVM per rank", report.FmtBytes(res.DataToNVMPerRank))
	tb.AddRow("  via pre-copy", report.FmtBytes(float64(res.PreCopyBytes)/float64(res.Ranks)))
	tb.AddRow("  at checkpoints", report.FmtBytes(float64(res.CkptBytes)/float64(res.Ranks)))
	tb.AddRow("pre-copy hit rate", report.FmtPctFixed(res.PreCopyHitRate))
	tb.AddRow("re-dirty rate", report.FmtPctFixed(res.ReDirtyRate))
	if remoteOn {
		tb.AddRow("ckpt bytes on fabric", report.FmtBytes(c.CkptFabricBytes()))
		tb.AddRow(fmt.Sprintf("peak fabric ckpt/%v", cluster.PeakWindow),
			report.FmtBytes(res.PeakCkptWindowBytes))
		for i, u := range res.HelperUtil {
			tb.AddRow(fmt.Sprintf("helper util %d", i), report.FmtPctFixed(u))
		}
	}
	if res.BottomObjects > 0 {
		tb.AddRow("bottom-tier objects", fmt.Sprintf("%d", res.BottomObjects))
		tb.AddRow("bottom-tier bytes", report.FmtBytes(float64(res.BottomBytes)))
		tb.AddRow("bottom-tier drain time", res.BottomDrainTime.Round(time.Millisecond).String())
	}
	if res.FailuresInjected > 0 {
		tb.AddRow("failures injected", fmt.Sprintf("%d", res.FailuresInjected))
		tb.AddRow("local restores", fmt.Sprintf("%d chunks", res.Restores))
		tb.AddRow("remote restores", fmt.Sprintf("%d chunks", res.RemoteRestores))
		tb.AddRow("recovery path local", fmt.Sprintf("%d chunks", res.RecoveryLocal))
		tb.AddRow("recovery path remote", fmt.Sprintf("%d chunks", res.RecoveryRemote))
		tb.AddRow("recovery path bottom", fmt.Sprintf("%d chunks", res.RecoveryBottom))
		if res.RecoveryLost > 0 {
			tb.AddRow("recovery path lost", fmt.Sprintf("%d chunks", res.RecoveryLost))
		}
		tb.AddRow("MTTR", res.MTTR.Round(time.Millisecond).String())
	}
	if res.FailuresSkipped > 0 {
		tb.AddRow("failures skipped", fmt.Sprintf("%d", res.FailuresSkipped))
	}
	if res.Corruptions > 0 {
		tb.AddRow("NVM chunks corrupted", fmt.Sprintf("%d", res.Corruptions))
	}
	if res.LinkFlaps > 0 {
		tb.AddRow("link flaps", fmt.Sprintf("%d", res.LinkFlaps))
	}
	if res.ShipRetries > 0 {
		tb.AddRow("helper ship retries", fmt.Sprintf("%d", res.ShipRetries))
	}
	if res.BuddyFailovers > 0 {
		tb.AddRow("buddy failovers", fmt.Sprintf("%d", res.BuddyFailovers))
	}
	if res.DegradedTime > 0 {
		tb.AddRow("time degraded", res.DegradedTime.Round(time.Millisecond).String())
	}
	if c.Lineage != nil {
		sum := c.Lineage.Summary()
		tb.AddRow("lineage records", fmt.Sprintf("%d live + %d compacted (%d chunks)",
			sum.Records-sum.CompactedRecords, sum.CompactedRecords, sum.Chunks))
		if sum.DeepestRecoveryChunk != "" {
			tb.AddRow("deepest recovery", fmt.Sprintf("%s via %s tier",
				sum.DeepestRecoveryChunk, sum.DeepestRecoveryTier))
		}
		tb.AddRow("lineage violations", fmt.Sprintf("%d", res.LineageViolations))
	}
	if c.SLO != nil {
		sum := c.SLO.Summary()
		tb.AddRow("slo windows", fmt.Sprintf("%d x %v", sum.Windows,
			time.Duration(sum.WindowUS)*time.Microsecond))
		if n := len(sum.Objectives); n > 0 {
			pass := 0
			for _, o := range sum.Objectives {
				if o.Pass {
					pass++
				}
			}
			tb.AddRow("slo objectives", fmt.Sprintf("%d/%d pass", pass, n))
		}
		tb.AddRow("slo availability", report.FmtPctFixed(sum.Availability))
		tb.AddRow("slo violations", fmt.Sprintf("%d", res.SLOViolations))
	}
	if c.Drift != nil {
		sum := c.Drift.Summary()
		tb.AddRow("drift windows", fmt.Sprintf("%d x %v", sum.Windows, c.Drift.WindowDuration()))
		worst := 0.0
		for _, q := range sum.Quantities {
			if q.Evaluated > 0 && q.MaxRelErr > worst {
				worst = q.MaxRelErr
			}
		}
		tb.AddRow("drift worst rel err", report.FmtPctFixed(worst))
		tb.AddRow("drift phase shifts", fmt.Sprintf("%d", sum.PhaseShifts))
		tb.AddRow("drift violations", fmt.Sprintf("%d", res.DriftViolations))
	}
	tb.AddRow("workload checksum", fmt.Sprintf("%016x", res.WorkloadChecksum))
	tb.Write(os.Stdout)

	// Fleet runs get the placement verdict: can a single zone loss destroy
	// all copies of any chunk under this run's replica placement?
	surv := stress.AnalyzeRun(c)
	if cfg.Topo != nil {
		fmt.Println(surv.Verdict())
	}

	writeArtifact(*eventsOut, "events", c.Obs.WriteEventsJSONL)
	writeArtifact(*metricsOut, "metrics", c.Obs.Registry().WriteProm)
	writeArtifact(*traceOut, "trace", trace.WriteChrome)
	writeArtifact(*reportOut, "report", func(w io.Writer) error {
		rep := c.Obs.BuildReport("nvmcp-sim", cfg, res)
		if c.Lineage != nil {
			rep.Lineage = c.Lineage.Summary()
		}
		if c.SLO != nil {
			rep.SLO = c.SLO.Summary()
		}
		return obs.WriteReport(w, rep)
	})
	writeSLOReport(*sloReportOut, c, sc)
	writeDriftReport(*driftOut, c, sc)
	writeStressReport(*stressOut, sc, c, res, surv)
	if queried {
		if err := runQueries(c.Lineage, *chunkKey, *tierName, *violations, *whyQuery); err != nil {
			fmt.Fprintf(os.Stderr, "nvmcp-sim: %v\n", err)
			os.Exit(1)
		}
	}

	if *httpAddr != "" && *httpHold {
		// The finished run stays inspectable (curl /lineage, grab a pprof
		// profile) until the user interrupts.
		fmt.Printf("run done; holding http://%s until interrupt (ctrl-c)\n", *httpAddr)
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
	}
}

// runQueries answers the lineage questions asked on the command line against
// the finished run's tracer.
func runQueries(tr *lineage.Tracer, chunkKey, tierName string, violations bool, whyQuery string) error {
	if chunkKey != "" {
		h, ok := tr.History(chunkKey)
		if !ok {
			return fmt.Errorf("unknown chunk %q (traced keys look like rank0/field3d-0)", chunkKey)
		}
		fmt.Print(lineage.FormatHistory(h))
	}
	if tierName != "" {
		hs := tr.TierRecords(tierName)
		if len(hs) == 0 {
			fmt.Printf("no lineage records touched the %s tier\n", tierName)
		}
		for _, h := range hs {
			fmt.Print(lineage.FormatHistory(h))
		}
	}
	if violations {
		vs := tr.Violations()
		if n := tr.ViolationCount(); n == 0 {
			fmt.Println("no lineage invariant violations")
		} else {
			fmt.Printf("%d lineage invariant violations (%d retained):\n", n, len(vs))
			for _, v := range vs {
				fmt.Println(" ", v.String())
			}
		}
	}
	if whyQuery != "" {
		chunk, epoch := whyQuery, -1
		if i := strings.LastIndex(whyQuery, "@"); i >= 0 {
			n, err := strconv.Atoi(whyQuery[i+1:])
			if err != nil {
				return fmt.Errorf("bad -why epoch in %q (want <chunk>@<epoch>)", whyQuery)
			}
			chunk, epoch = whyQuery[:i], n
		}
		story, err := tr.Why(chunk, epoch)
		if err != nil {
			return err
		}
		fmt.Print(story)
	}
	return nil
}

// runServe is the resident control-plane mode: one process holding the job
// API open, each submitted scenario executing on its own virtual clock under
// the plane's admission policy. The process stays up — and the finished
// jobs' results stay queryable — until an interrupt, when the plane drains
// (queued jobs canceled, live ones aborted at their next control tick) and
// the HTTP server shuts down with its usual grace period.
func runServe(addr string, cfg controlplane.Config) int {
	if addr == "" {
		addr = "127.0.0.1:8080"
	}
	pl := controlplane.New(cfg)
	srv, err := introspect.Serve(addr, introspect.Source{
		Tool:   "nvmcp-sim",
		Status: func() string { return "serving" },
		API:    pl.Handler(),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "nvmcp-sim: %v\n", err)
		return 2
	}
	fmt.Printf("control plane listening on http://%s (POST /api/jobs, GET /api/plane)\n", srv.Addr())
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	code := 0
	select {
	case <-ch:
	case err := <-srv.ServeErr():
		if err != nil {
			fmt.Fprintf(os.Stderr, "nvmcp-sim: %v\n", err)
			code = 1
		}
	}
	pl.Close()
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "nvmcp-sim: %v\n", err)
	}
	return code
}

// resolveScenario picks the run's scenario: an explicit file, a named preset,
// or the flag-composed fallback.
func resolveScenario(path, preset, scaleName string, fromFlags func() *scenario.Scenario) (*scenario.Scenario, error) {
	switch {
	case path != "" && preset != "":
		return nil, fmt.Errorf("-scenario and -preset are mutually exclusive")
	case path != "":
		return scenario.LoadFile(path)
	case preset != "":
		scale, err := scenario.ParseScale(scaleName)
		if err != nil {
			return nil, err
		}
		return scenario.BuildPreset(preset, scale)
	}
	sc := fromFlags()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// printPresets lists every preset id with its fleet/fault-domain shape at
// the given scale and its one-line description. The fleet column sits
// between "runs via" and "description" so the Makefile's field-positional
// preset sweep (awk '$3 == "-preset"') keeps matching.
func printPresets(w io.Writer, scaleName string) {
	scale, err := scenario.ParseScale(scaleName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nvmcp-sim: %v\n", err)
		os.Exit(2)
	}
	tb := &report.Table{Header: []string{"preset", "runs via", "fleet", "description"}}
	for _, p := range scenario.Presets() {
		via := "nvmcp-sim -preset " + p.ID
		fleet := "-"
		if !p.ClusterShaped() {
			via = "nvmcp-bench " + p.ID
		} else if sc := p.Build(scale); sc.Fleet != nil {
			if tp := sc.Topology(); tp != nil {
				fleet = fmt.Sprintf("%dn %s", tp.Nodes(), tp.Summary())
			}
		}
		tb.AddRow(p.ID, via, fleet, p.Description)
	}
	tb.Write(w)
}

// policyName renders a policy field for the summary line ("" means none).
func policyName(name string) string {
	if name == "" {
		return "none"
	}
	return name
}

// writeArtifact renders one observability sink to a file; an empty path skips
// the sink. Create, write, and Close errors (a full disk surfaces at Close)
// all exit non-zero.
func writeArtifact(path, what string, write func(io.Writer) error) {
	if path == "" {
		return
	}
	if err := report.WriteFile(path, write); err != nil {
		fmt.Fprintf(os.Stderr, "nvmcp-sim: write %s: %v\n", what, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s -> %s\n", what, path)
}

// writeReportPair renders a report as the pair report.WritePair writes:
// <base>.html (self-contained charts) and <base>.json (the stable schema),
// announcing each file as "<what> (html|json)".
func writeReportPair(path, what, pkg string, rep any, page func(io.Writer) error) {
	err := report.WritePair(path, pkg, rep, page, func(p string) {
		fmt.Printf("wrote %s (%s) -> %s\n", what, strings.TrimPrefix(filepath.Ext(p), "."), p)
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "nvmcp-sim: write %s: %v\n", what, err)
		os.Exit(1)
	}
}

// runMeta is the report identity of a run of sc.
func runMeta(sc *scenario.Scenario) report.Meta {
	return report.Meta{Tool: "nvmcp-sim", Scenario: sc.Name, Seed: sc.FaultSeed}
}

// writeSLOReport renders the flight recorder as the report pair; its JSON is
// the schema nvmcp-analyze -diff consumes.
func writeSLOReport(path string, c *cluster.Cluster, sc *scenario.Scenario) {
	if path == "" || c.SLO == nil {
		return
	}
	meta := runMeta(sc)
	rep := slo.BuildReport(c.SLO, meta)
	if c.Drift != nil {
		// A run recording both gets one combined artifact: the drift section
		// rides in the SLO report (JSON field + an HTML section).
		dr := drift.BuildReport(c.Drift, meta)
		rep.Drift = &dr
	}
	writeReportPair(path, "slo report", "slo", rep, func(w io.Writer) error { return slo.WriteHTML(w, rep) })
}

// writeDriftReport renders the model-drift observatory as the report pair.
func writeDriftReport(path string, c *cluster.Cluster, sc *scenario.Scenario) {
	if path == "" || c.Drift == nil {
		return
	}
	rep := drift.BuildReport(c.Drift, runMeta(sc))
	writeReportPair(path, "drift report", "drift", rep, func(w io.Writer) error { return drift.WriteHTML(w, rep) })
}

// writeStressReport renders the run as a one-cell stress report pair: the
// survivability verdict plus the MTTR/availability cell.
func writeStressReport(path string, sc *scenario.Scenario, c *cluster.Cluster, res cluster.Result, surv *stress.Survivability) {
	if path == "" {
		return
	}
	var survs []*stress.Survivability
	if surv != nil {
		survs = append(survs, surv)
	}
	rep := stress.BuildReport(runMeta(sc), survs, []stress.Cell{stress.CellFromRun(sc, c, res)})
	writeReportPair(path, "stress report", "stress", rep, func(w io.Writer) error { return stress.WriteHTML(w, rep) })
}

// runSweep expands a sweep file and runs every cell sequentially, printing a
// one-line summary per cell. When -slo-report-out is set, each cell writes
// its own report pair under a sanitized cell suffix. The exit code is
// non-zero if any cell fails (including -slo-strict and -drift-strict
// breaches).
func runSweep(path string, sloStrict, driftStrict bool, sloReportOut string) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nvmcp-sim: %v\n", err)
		return 2
	}
	sw, err := scenario.LoadSweep(f)
	// Same Close-error-propagation convention as report.WriteFile: a failed
	// Close is the sweep's problem unless the load already failed louder.
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "nvmcp-sim: %v\n", err)
		return 2
	}
	cells, err := sw.Expand()
	if err != nil {
		fmt.Fprintf(os.Stderr, "nvmcp-sim: %v\n", err)
		return 2
	}
	fmt.Printf("nvmcp-sim: sweep %s, %d cells\n", path, len(cells))
	failed := 0
	for _, sc := range cells {
		cfg, err := cluster.FromScenario(sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nvmcp-sim: cell %s: %v\n", sc.Name, err)
			failed++
			continue
		}
		if cfg.SLO != nil && sloStrict {
			cfg.SLO.Strict = true
		}
		if cfg.Drift != nil && driftStrict {
			cfg.Drift.Strict = true
		}
		c, err := cluster.New(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nvmcp-sim: cell %s: %v\n", sc.Name, err)
			failed++
			continue
		}
		res, runErr := c.Execute()
		verdict := "ok"
		if runErr != nil {
			verdict = "FAIL"
			failed++
		}
		fmt.Printf("  %-60s exec=%-10v slo_violations=%-3d %s\n",
			sc.Name, res.ExecTime.Round(time.Millisecond), res.SLOViolations, verdict)
		if runErr != nil {
			fmt.Fprintf(os.Stderr, "nvmcp-sim: cell %s: %v\n", sc.Name, runErr)
		}
		if sloReportOut != "" && c.SLO != nil {
			base := strings.TrimSuffix(sloReportOut, filepath.Ext(sloReportOut))
			writeSLOReport(base+"-"+cellSlug(sc.Name)+".json", c, sc)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "nvmcp-sim: %d/%d sweep cells failed\n", failed, len(cells))
		return 1
	}
	return 0
}

// cellSlug makes a sweep cell name filesystem-safe.
func cellSlug(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '.', r == '_':
			return r
		}
		return '-'
	}, name)
}
