// Command comfase runs ComFASE golden runs and attack-injection
// campaigns from JSON configuration files.
//
// Usage:
//
//	comfase golden [-seed N] [-csv golden.csv]
//	comfase campaign -config experiment.json [-out report.txt] [-v]
//	         [-workers N] [-results FILE] [-resume] [-jsonl FILE]
//	comfase serve -config experiment.json -results merged.csv
//	comfase work -coordinator URL
//
// Campaigns stream per-experiment results to -results as they complete,
// honor SIGINT by flushing partial results and exiting cleanly, and
// resume an interrupted run with -resume. `comfase serve` splits the
// grid across `comfase work` processes and merges their rows itself.
//
// The config format is documented in internal/config; an empty scenario/
// comm section reproduces the paper's setup (§IV-A). Example:
//
//	{
//	  "campaign": {
//	    "attack": "delay",
//	    "valuesS":     {"range": {"from": 0.2, "to": 3.0, "step": 0.2}},
//	    "startTimesS": {"range": {"from": 17, "to": 21.8, "step": 0.2}},
//	    "durationsS":  {"range": {"from": 1, "to": 30, "step": 1}}
//	  },
//	  "runtime": {"workers": 8, "resultsFile": "delay.csv"}
//	}
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"syscall"
	"time"

	"comfase/internal/analysis"
	"comfase/internal/config"
	"comfase/internal/core"
	"comfase/internal/fabric"
	"comfase/internal/obs"
	"comfase/internal/registry"
	"comfase/internal/runner"
	"comfase/internal/scenario"
	"comfase/internal/sim/des"
	"comfase/internal/trace"
)

// errInterrupted marks a campaign cut short by SIGINT/SIGTERM: partial
// results were flushed and the operator was told how to resume, but the
// grid is incomplete, so the exit code must say so.
var errInterrupted = errors.New("interrupted")

// Exit codes. Scripts driving long campaigns branch on these.
const (
	exitOK          = 0   // campaign (or other subcommand) completed
	exitError       = 1   // config, I/O or execution error
	exitInterrupted = 2   // SIGINT/SIGTERM; partial results flushed
	exitBudget      = 3   // persistent failures exceeded -max-failures
	exitForced      = 130 // second SIGINT: immediate forced exit
)

// forceExit is swapped out by tests of the double-SIGINT path.
var forceExit = os.Exit

func main() {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go watchSignals(sigs, cancel)
	os.Exit(exitCode(run(ctx, os.Args[1:], os.Stdout)))
}

// watchSignals implements the two-stage shutdown: the first signal
// cancels the context (graceful — the runner flushes partial results and
// run returns errInterrupted); a second signal means the operator wants
// out NOW and force-exits without waiting for the flush.
func watchSignals(sigs <-chan os.Signal, cancel context.CancelFunc) {
	<-sigs
	cancel()
	<-sigs
	forceExit(exitForced)
}

// exitCode maps run's error to the process exit code and prints the
// error for the plain-failure case.
func exitCode(err error) int {
	switch {
	case err == nil:
		return exitOK
	case errors.Is(err, errInterrupted):
		// The campaign already printed the resume instructions.
		return exitInterrupted
	case errors.Is(err, runner.ErrFailureBudget):
		fmt.Fprintln(os.Stderr, "comfase:", err)
		return exitBudget
	default:
		fmt.Fprintln(os.Stderr, "comfase:", err)
		return exitError
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return usageError()
	}
	switch args[0] {
	case "golden":
		return runGolden(args[1:], stdout)
	case "campaign":
		return runCampaign(ctx, args[1:], stdout)
	case "serve":
		return runServe(ctx, args[1:], stdout)
	case "work":
		return runWork(ctx, args[1:], stdout)
	case "list":
		return runList(stdout)
	case "-h", "--help", "help":
		printUsage(stdout)
		return nil
	default:
		return usageError()
	}
}

func usageError() error {
	return fmt.Errorf("usage: comfase <golden|campaign|serve|work|list> [flags]; see comfase help")
}

func printUsage(w io.Writer) {
	fmt.Fprint(w, `comfase - communication fault and attack simulation engine

Subcommands:
  golden    run the attack-free reference simulation of the paper scenario
            flags: -seed N, -csv FILE (write the Fig. 4 time series),
                   -cpuprofile FILE, -memprofile FILE (pprof output)
  campaign  run an attack-injection campaign from a JSON config
            flags: -config FILE (required), -out FILE, -v (progress),
                   -workers N (0 = all cores),
                   -results FILE (stream per-experiment CSV rows; resume source),
                   -resume (skip experiments already in -results and -quarantine),
                   -jsonl FILE (stream JSON-lines results),
                   -retries N (re-run failed experiments before quarantining),
                   -max-failures N (failure budget; 0 = fail fast, -1 = unlimited),
                   -experiment-timeout D (per-experiment watchdog, e.g. 30s),
                   -event-budget N (per-experiment kernel event cap),
                   -invariants (runtime NaN/position/overlap checks),
                   -early-exit (stop experiments once their verdict is decided),
                   -early-exit-hold D (stability window),
                   -quarantine FILE (append persistent failures as JSON lines),
                   -heartbeat FILE (publish periodic JSON metrics snapshots),
                   -heartbeat-interval D (snapshot period, default 5s),
                   -metrics-addr HOST:PORT (live /metrics, /debug/vars, /debug/pprof),
                   -cpuprofile FILE, -memprofile FILE (pprof output)
            the first SIGINT flushes partial results to -results and exits
            cleanly; a second SIGINT force-exits immediately.
            exit codes: 0 complete, 1 error, 2 interrupted,
                        3 failure budget exceeded, 130 forced exit
  serve     coordinate a distributed campaign: own the grid, lease
            contiguous expNr ranges to "comfase work" processes over
            HTTP, re-lease ranges whose worker dies, and stream the
            merged results CSV in grid order — byte-identical to a
            sequential run even when workers crash mid-range
            flags: -config FILE (required), -results FILE (required),
                   -addr HOST:PORT (listen address; "127.0.0.1:0" picks
                   a port), -quarantine FILE (merged failure records),
                   -lease-size N (grid points per lease),
                   -lease-ttl D (dead-worker detection window),
                   -resume (trust the merged prefix already on disk),
                   -max-failures N (campaign failure budget),
                   -heartbeat FILE, -heartbeat-interval D,
                   -metrics-addr HOST:PORT, -v (log fabric events)
            a lease request with nothing to grant waits on the service
            until a range frees up or the run ends; at the end serve
            answers every waiting worker, then closes.
            the first SIGINT drains (finish what's leased, lease nothing
            new) and exits 2 with a -resume hint; a second force-exits.
  work      execute leased ranges for a "comfase serve" coordinator; the
            campaign config arrives with the registration, an idle worker
            waits on the coordinator instead of sleeping, and it exits
            once told the run is done or draining
            flags: -coordinator URL (required unless -config supplies
                   fabric.addr), -config FILE (optional local defaults),
                   -workers N (local experiment pool; 0 = the campaign
                   config's runtime.workers, which defaults to 1),
                   -max-coordinator-retries N (consecutive failed calls
                   tolerated before giving up),
                   -retry-base D (backoff base; capped exponential with
                   jitter), -v (log lease progress)
  list      print the registered scenario, attack and campaign families
            with their parameter schemas — the names a config file's
            campaign/matrix sections accept

A config file may replace the single "campaign" section with a "matrix"
section crossing registered scenarios with registered attacks; the grid
is flattened into one contiguous expNr space, so -resume and serve's
leases work unchanged, and the results CSV gains a scenario column.
`)
}

func runGolden(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("golden", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "random seed")
	csvPath := fs.String("csv", "", "write the golden-run time series as CSV")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil {
			fmt.Fprintln(os.Stderr, "comfase: profile:", perr)
		}
	}()
	eng, err := core.NewEngine(core.EngineConfig{
		Scenario: scenario.PaperScenario(),
		Comm:     scenario.PaperCommModel(),
		Seed:     *seed,
	})
	if err != nil {
		return err
	}
	log, res, err := eng.GoldenRun()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "golden run: max deceleration %.3f m/s^2, %d beacon deliveries, %d samples\n",
		res.MaxDecel, res.Deliveries, log.Len())
	if *csvPath != "" {
		if err := writeCSV(log, *csvPath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "time series written to %s\n", *csvPath)
	}
	return nil
}

// startProfiles starts CPU profiling to cpuPath and arranges a heap
// profile written to memPath when the returned stop function runs.
// Either path may be empty; stop is always safe to call once.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			runtime.GC() // capture retained heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
		return nil
	}, nil
}

func writeCSV(log *trace.FullLog, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := log.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// campaignFlags is campaign's flag table: each flag is bound to the
// config setting it overrides, with that setting's current value as its
// default (see applyFlags).
func campaignFlags(fs *flag.FlagSet, p *config.Parsed) {
	rt := &p.Runtime
	fs.IntVar(&rt.Workers, "workers", rt.Workers, "parallel experiment workers (0 = all cores; default: the config's runtime.workers, else 1)")
	fs.StringVar(&rt.ResultsFile, "results", rt.ResultsFile, "stream per-experiment results to this CSV (resume source)")
	fs.IntVar(&rt.Retries, "retries", rt.Retries, "re-run a failed experiment up to N times before quarantining it")
	fs.IntVar(&rt.MaxFailures, "max-failures", rt.MaxFailures, "persistent failures tolerated before aborting (0 = fail fast, negative = unlimited)")
	fs.DurationVar(&rt.ExperimentTimeout, "experiment-timeout", rt.ExperimentTimeout, "per-experiment wall-clock watchdog (0 = none)")
	fs.Uint64Var(&rt.EventBudget, "event-budget", rt.EventBudget, "per-experiment kernel event cap (0 = unlimited)")
	fs.BoolVar(&rt.Invariants, "invariants", rt.Invariants, "enable runtime invariant checks in every simulation step")
	fs.BoolVar(&rt.EarlyExit, "early-exit", rt.EarlyExit, "stop an experiment once its classification is decided (classification-identical; truncates raw kinematics)")
	fs.Var(simDuration{&rt.EarlyExitHold}, "early-exit-hold", "how long the platoon must hold within tolerance before exiting early (0 = 5s default)")
	fs.StringVar(&rt.QuarantineFile, "quarantine", rt.QuarantineFile, "append persistent-failure records to this JSON-lines file")
	fs.StringVar(&rt.HeartbeatFile, "heartbeat", rt.HeartbeatFile, "periodically publish a JSON metrics snapshot to this file (atomic rename)")
	fs.DurationVar(&rt.HeartbeatInterval, "heartbeat-interval", rt.HeartbeatInterval, "heartbeat snapshot period (0 = 5s default)")
	fs.StringVar(&rt.MetricsAddr, "metrics-addr", rt.MetricsAddr, `serve live metrics over HTTP: /metrics, /debug/vars, /debug/pprof ("127.0.0.1:0" picks a port)`)
}

// serveFlags is serve's flag table (see campaignFlags).
func serveFlags(fs *flag.FlagSet, p *config.Parsed) {
	fb := &p.Fabric
	fs.StringVar(&fb.Addr, "addr", fb.Addr, `HTTP listen address (default config fabric.addr, else "127.0.0.1:0")`)
	fs.IntVar(&fb.LeaseSize, "lease-size", fb.LeaseSize, "grid points per worker lease (0 = config fabric.leaseSize, else 16)")
	fs.DurationVar(&fb.LeaseTTL, "lease-ttl", fb.LeaseTTL, "worker lease TTL; silence past it re-leases the range (0 = config fabric.leaseTTLS, else 15s)")
	fs.IntVar(&p.Runtime.MaxFailures, "max-failures", p.Runtime.MaxFailures, "persistent failures tolerated before aborting (0 = fail fast, negative = unlimited)")
}

// applyFlags makes the flags of fs that the command line set win over
// parsed's settings. fs was parsed with table bound to scratch settings;
// applyFlags binds table to parsed and replays each explicit flag there,
// so an absent flag leaves the config's value, zero included.
func applyFlags(fs *flag.FlagSet, table func(*flag.FlagSet, *config.Parsed), parsed *config.Parsed) error {
	bound := flag.NewFlagSet(fs.Name(), flag.ContinueOnError)
	table(bound, parsed)
	var err error
	fs.Visit(func(f *flag.Flag) {
		if b := bound.Lookup(f.Name); b != nil && err == nil {
			err = b.Value.Set(f.Value.String())
		}
	})
	return err
}

// simDuration binds a wall-clock duration flag ("5s") to a simulation
// time span.
type simDuration struct{ t *des.Time }

func (f simDuration) String() string {
	if f.t == nil {
		return "0s"
	}
	return time.Duration(*f.t).String()
}

func (f simDuration) Set(v string) error {
	d, err := time.ParseDuration(v)
	if err == nil {
		*f.t = des.FromDuration(d)
	}
	return err
}

func runCampaign(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	cfgPath := fs.String("config", "", "JSON experiment configuration (required)")
	outPath := fs.String("out", "", "write the report to this file instead of stdout")
	verbose := fs.Bool("v", false, "print campaign progress")
	jsonlPath := fs.String("jsonl", "", "stream per-experiment results to this JSON-lines file")
	resume := fs.Bool("resume", false, "skip experiments already recorded in the results file")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	campaignFlags(fs, &config.Parsed{})
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cfgPath == "" {
		return fmt.Errorf("campaign: -config is required")
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil {
			fmt.Fprintln(os.Stderr, "comfase: profile:", perr)
		}
	}()
	f, err := os.Open(*cfgPath)
	if err != nil {
		return err
	}
	parsed, err := config.Parse(f)
	f.Close()
	if err != nil {
		return err
	}
	if err := applyFlags(fs, campaignFlags, parsed); err != nil {
		return err
	}
	rt := parsed.Runtime
	switch {
	case rt.Retries < 0:
		return fmt.Errorf("campaign: negative -retries %d", rt.Retries)
	case rt.ExperimentTimeout < 0:
		return fmt.Errorf("campaign: negative -experiment-timeout %v", rt.ExperimentTimeout)
	case rt.HeartbeatInterval < 0:
		return fmt.Errorf("campaign: negative -heartbeat-interval %v", rt.HeartbeatInterval)
	case *resume && rt.ResultsFile == "":
		return fmt.Errorf("campaign: -resume needs a results file (-results)")
	}
	opts := rt.Options
	results, quarantine := rt.ResultsFile, rt.QuarantineFile

	var sinks []runner.Sink
	if *resume {
		if opts.Resume, err = runner.ReadResultsFile(results); err != nil {
			return err
		}
		if quarantine != "" {
			// Quarantined grid points are not retried on resume; delete
			// the quarantine file to re-execute them.
			if opts.ResumeFailures, err = runner.ReadQuarantineFile(quarantine); err != nil {
				return err
			}
		}
	}
	cells, matrixMode := parsed.Grid()
	if results != "" {
		// A resume run with prior rows appends below them; anything else
		// starts fresh with a header.
		appendTo := len(opts.Resume) > 0
		f, err := openOutput(results, appendTo)
		if err != nil {
			return err
		}
		defer f.Close()
		sinks = append(sinks, runner.NewResultsCSVSink(f, matrixMode, !appendTo))
	}
	if quarantine != "" {
		// Resume runs append below the prior records; fresh runs truncate.
		qf, err := openOutput(quarantine, *resume)
		if err != nil {
			return err
		}
		defer qf.Close()
		opts.Quarantine = runner.NewQuarantineSink(qf)
	}
	if *jsonlPath != "" {
		jf, err := os.Create(*jsonlPath)
		if err != nil {
			return err
		}
		defer jf.Close()
		sinks = append(sinks, runner.NewJSONSink(jf))
	}

	// Track completion for the interrupt message; chain the verbose
	// printer behind it.
	var lastDone, lastTotal atomic.Int64
	opts.Progress = func(done, total int) {
		lastDone.Store(int64(done))
		lastTotal.Store(int64(total))
		if *verbose && (done%500 == 0 || done == total) {
			fmt.Fprintf(stdout, "  %d/%d experiments\n", done, total)
		}
	}

	// Metrics are always collected — the instrumentation is free enough
	// that there is nothing to turn off — and the heartbeat file and HTTP
	// endpoint are opt-in views onto the same registry.
	reg := obs.NewRegistry()
	opts.Metrics = reg
	if rt.MetricsAddr != "" {
		srv, err := obs.NewServer(rt.MetricsAddr, reg)
		if err != nil {
			return fmt.Errorf("campaign: metrics listener: %w", err)
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "metrics: http://%s/metrics (pprof at /debug/pprof/)\n", srv.Addr())
	}
	var hb *obs.Heartbeat
	if rt.HeartbeatFile != "" {
		hb = obs.NewHeartbeat(rt.HeartbeatFile, rt.HeartbeatInterval, reg.Snapshot)
		if err := hb.Start(); err != nil {
			return fmt.Errorf("campaign: heartbeat: %w", err)
		}
	}

	for i := range cells {
		cells[i].Engine.Metrics = reg
	}
	res, err := runner.RunMatrix(ctx, cells, opts, sinks...)
	if hb != nil {
		// Stop after the run so the final snapshot carries the campaign's
		// end state; a write failure is diagnostic, never fatal to results.
		if herr := hb.Stop(); herr != nil {
			fmt.Fprintln(os.Stderr, "comfase: heartbeat:", herr)
		}
	}
	if err != nil {
		if errors.Is(err, context.Canceled) && ctx.Err() != nil {
			// SIGINT/SIGTERM: partial results are already flushed; tell
			// the operator how to pick the campaign back up.
			fmt.Fprintf(stdout, "campaign interrupted: %d/%d experiments completed\n",
				lastDone.Load(), lastTotal.Load())
			if results != "" {
				fmt.Fprintf(stdout, "partial results flushed to %s; continue with -resume\n", results)
			}
			return errInterrupted
		}
		return err
	}
	if n := res.FailureCounts.Total(); n > 0 {
		fmt.Fprintf(stdout, "%d experiment(s) quarantined (%v)", n, res.FailureCounts)
		if quarantine != "" {
			fmt.Fprintf(stdout, "; records in %s", quarantine)
		}
		fmt.Fprintln(stdout)
	}

	out := stdout
	if *outPath != "" {
		of, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer of.Close()
		out = of
	}
	if matrixMode {
		return writeMatrixReport(out, res)
	}
	return writeCampaignReport(out, res.Cells[0].Result)
}

// writeMatrixReport renders the whole-matrix summary, the per-cell
// classification table, and each cell's figure family.
func writeMatrixReport(w io.Writer, res *runner.MatrixResult) error {
	if _, err := fmt.Fprintf(w, "matrix campaign: %d cells, %d experiments: %v\n\n",
		len(res.Cells), res.Counts.Total(), res.Counts); err != nil {
		return err
	}
	groups := analysis.GroupCells(res.Experiments)
	if err := analysis.WriteCellTable(w, groups); err != nil {
		return err
	}
	for _, f := range analysis.CellFamilies(groups) {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		if err := analysis.WriteCellReport(w, f); err != nil {
			return err
		}
	}
	return nil
}

// openOutput opens a streamed output file: appending when appendTo is
// set (a resumed run), truncating otherwise.
func openOutput(path string, appendTo bool) (*os.File, error) {
	mode := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	if appendTo {
		mode = os.O_CREATE | os.O_WRONLY | os.O_APPEND
	}
	return os.OpenFile(path, mode, 0o644)
}

// runServe is the fabric coordinator: it owns the -config campaign's
// grid, leases contiguous expNr ranges to `comfase work` processes,
// re-leases ranges whose worker goes silent past the TTL, and streams
// the merged results CSV (and quarantine) in grid order — byte-identical
// to a sequential run. It finishes with the campaign.
func runServe(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	cfgPath := fs.String("config", "", "JSON experiment configuration (required); served to workers at registration")
	resultsPath := fs.String("results", "", "merged results CSV (required; also the -resume source)")
	quarantinePath := fs.String("quarantine", "", "merged quarantine JSON-lines file")
	resume := fs.Bool("resume", false, "trust the merged prefix already in -results/-quarantine and serve only the rest")
	verbose := fs.Bool("v", false, "log fabric events (registrations, leases, expiries)")
	heartbeatPath := fs.String("heartbeat", "", "periodically publish a JSON metrics snapshot to this file (atomic rename)")
	heartbeatInterval := fs.Duration("heartbeat-interval", 0, "heartbeat snapshot period (0 = 5s default)")
	metricsAddr := fs.String("metrics-addr", "", `serve live metrics over HTTP: /metrics, /debug/vars, /debug/pprof ("127.0.0.1:0" picks a port)`)
	serveFlags(fs, &config.Parsed{})
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *cfgPath == "":
		return fmt.Errorf("serve: -config is required")
	case *resultsPath == "":
		return fmt.Errorf("serve: -results is required")
	}
	cfgJSON, err := os.ReadFile(*cfgPath)
	if err != nil {
		return err
	}
	parsed, err := config.Parse(bytes.NewReader(cfgJSON))
	if err != nil {
		return err
	}
	if err := applyFlags(fs, serveFlags, parsed); err != nil {
		return err
	}
	fb := parsed.Fabric
	if fb.Addr == "" {
		fb.Addr = "127.0.0.1:0"
	}

	reg := obs.NewRegistry()
	var logf func(string, ...any)
	if *verbose {
		logf = func(format string, a ...any) { fmt.Fprintf(stdout, "serve: "+format+"\n", a...) }
	}
	svc, err := fabric.NewService(fabric.Campaign{
		Config:      cfgJSON,
		Results:     *resultsPath,
		Quarantine:  *quarantinePath,
		Resume:      *resume,
		MaxFailures: &parsed.Runtime.MaxFailures,
	}, fabric.ServiceOptions{
		LeaseSize: fb.LeaseSize,
		LeaseTTL:  fb.LeaseTTL,
		Metrics:   reg,
		Logf:      logf,
	})
	if err != nil {
		return err
	}

	if *metricsAddr != "" {
		srv, err := obs.NewServer(*metricsAddr, reg)
		if err != nil {
			return fmt.Errorf("serve: metrics listener: %w", err)
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "metrics: http://%s/metrics (pprof at /debug/pprof/)\n", srv.Addr())
	}
	if *heartbeatPath != "" {
		hb := obs.NewHeartbeat(*heartbeatPath, *heartbeatInterval, reg.Snapshot)
		if err := hb.Start(); err != nil {
			return fmt.Errorf("serve: heartbeat: %w", err)
		}
		defer func() {
			if herr := hb.Stop(); herr != nil {
				fmt.Fprintln(os.Stderr, "comfase: heartbeat:", herr)
			}
		}()
	}
	ln, err := net.Listen("tcp", fb.Addr)
	if err != nil {
		return fmt.Errorf("serve: listen: %w", err)
	}
	httpSrv := &http.Server{Handler: svc.Handler()}
	go httpSrv.Serve(ln)
	url := "http://" + ln.Addr().String()
	st := svc.Status()
	fmt.Fprintf(stdout, "fabric coordinator on %s: %d grid points (%d resumed), lease TTL %v\n",
		url, st.Total, st.Merged, svc.LeaseTTL())
	fmt.Fprintf(stdout, "start workers with: comfase work -coordinator %s\n", url)

	err = svc.Wait(ctx)
	// Keep the socket up until every live worker has been answered Done
	// or Draining (Linger, bounded by one TTL): a worker between two
	// requests when the run ended is about to ask again. Then close
	// gracefully, so the handlers still writing those answers finish
	// first; a clean finish never looks like a dead coordinator.
	svc.Linger()
	shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), svc.LeaseTTL())
	if httpSrv.Shutdown(shutdownCtx) != nil {
		httpSrv.Close()
	}
	cancelShutdown()
	drained := errors.Is(err, fabric.ErrDrained)
	if err != nil && !drained {
		return err
	}
	st = svc.Status()
	if drained {
		fmt.Fprintf(stdout, "campaign drained: %d/%d grid points merged to %s; continue with -resume\n",
			st.Merged, st.Total, *resultsPath)
		return errInterrupted
	}
	fmt.Fprintf(stdout, "campaign complete: %d grid points merged to %s (%d quarantined)\n",
		st.Merged, *resultsPath, st.Failures)
	return nil
}

// runWork is a fabric worker: it registers with a coordinator, receives
// the campaign config, and executes leased ranges until the grid is done
// or the coordinator drains.
func runWork(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("work", flag.ContinueOnError)
	coordURL := fs.String("coordinator", "", "coordinator base URL, e.g. http://host:7440 (required unless -config supplies fabric.addr)")
	cfgPath := fs.String("config", "", "optional local config supplying fabric worker defaults")
	workers := fs.Int("workers", 0, "local parallel experiment workers (0 = the campaign config's runtime.workers, else 1)")
	maxRetries := fs.Int("max-coordinator-retries", 0, "consecutive failed coordinator calls tolerated per request (0 = config fabric.maxCoordinatorRetries, else 8)")
	retryBase := fs.Duration("retry-base", 0, "base of the capped jittered exponential backoff between retries (0 = config fabric.retryBaseMS, else 200ms)")
	verbose := fs.Bool("v", false, "log lease progress")
	if err := fs.Parse(args); err != nil {
		return err
	}
	url := *coordURL
	retries := *maxRetries
	base := *retryBase
	if *cfgPath != "" {
		f, err := os.Open(*cfgPath)
		if err != nil {
			return err
		}
		parsed, err := config.Parse(f)
		f.Close()
		if err != nil {
			return err
		}
		if url == "" && parsed.Fabric.Addr != "" {
			url = "http://" + parsed.Fabric.Addr
		}
		if retries == 0 {
			retries = parsed.Fabric.MaxCoordinatorRetries
		}
		if base == 0 {
			base = parsed.Fabric.RetryBase
		}
	}
	if url == "" {
		return fmt.Errorf("work: -coordinator is required (or a -config with fabric.addr)")
	}
	var logf func(string, ...any)
	if *verbose {
		logf = func(format string, a ...any) { fmt.Fprintf(stdout, "work: "+format+"\n", a...) }
	}
	w, err := fabric.NewWorker(fabric.WorkerOptions{
		Coordinator: url,
		Workers:     *workers,
		MaxRetries:  retries,
		RetryBase:   base,
		Metrics:     obs.NewRegistry(),
		Logf:        logf,
	})
	if err != nil {
		return err
	}
	err = w.Run(ctx)
	if errors.Is(err, context.Canceled) && ctx.Err() != nil {
		fmt.Fprintln(stdout, "worker interrupted; unfinished leases will expire and be re-leased")
		return errInterrupted
	}
	return err
}

// runList prints the registered scenario, attack and campaign families
// with their parameter schemas — the authoritative answer to "what can
// a config file's campaign/matrix sections name?".
func runList(stdout io.Writer) error {
	fmt.Fprintln(stdout, "scenarios:")
	for _, name := range registry.ScenarioNames() {
		entry, err := registry.LookupScenario(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  %-16s %s\n", entry.Name, entry.Desc)
		for _, spec := range entry.Schema {
			fmt.Fprintf(stdout, "    %s\n", spec.Doc())
		}
	}
	fmt.Fprintln(stdout, "\nattacks:")
	for _, name := range registry.AttackNames() {
		entry, err := registry.LookupAttack(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  %-16s %s\n", entry.Name, entry.Desc)
		if entry.ValueDoc != "" {
			fmt.Fprintf(stdout, "    value: %s\n", entry.ValueDoc)
		}
		for _, spec := range entry.Schema {
			fmt.Fprintf(stdout, "    %s\n", spec.Doc())
		}
	}
	fmt.Fprintln(stdout, "\ncampaigns:")
	for _, name := range registry.CampaignNames() {
		entry, err := registry.LookupCampaign(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  %-16s %s\n", entry.Name, entry.Desc)
	}
	return nil
}

func writeCampaignReport(w io.Writer, res *core.CampaignResult) error {
	if _, err := fmt.Fprintf(w, "%s\n\n", analysis.SummaryLine(res)); err != nil {
		return err
	}
	for _, series := range []analysis.Series{
		analysis.ByDuration(res.Experiments),
		analysis.ByValue(res.Experiments),
		analysis.ByStart(res.Experiments),
	} {
		if err := analysis.WriteSeriesTable(w, series); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, "collider attribution:"); err != nil {
		return err
	}
	return analysis.WriteColliderTable(w, analysis.ColliderShares(res.Experiments))
}
