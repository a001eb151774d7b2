// Command comfase runs ComFASE golden runs and attack-injection
// campaigns from JSON configuration files.
//
// Usage:
//
//	comfase golden [-seed N] [-csv golden.csv]
//	comfase campaign -config experiment.json [-out report.txt] [-v]
//	         [-workers N] [-shard i/n] [-results FILE] [-resume] [-jsonl FILE]
//	comfase merge -out merged.csv shard1.csv shard2.csv ...
//
// Campaigns stream per-experiment results to -results as they complete,
// honor SIGINT by flushing partial results and exiting cleanly, resume
// an interrupted run with -resume, and split the grid across processes
// with -shard (merge the per-shard files with `comfase merge`).
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
	"strings"
	"sync/atomic"
	"syscall"

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
	case "submit":
		return runSubmit(ctx, args[1:], stdout)
	case "campaigns":
		return runCampaigns(ctx, args[1:], stdout)
	case "merge":
		return runMerge(args[1:], stdout)
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
	return fmt.Errorf("usage: comfase <golden|campaign|serve|work|submit|campaigns|merge|list> [flags]; see comfase help")
}

func printUsage(w io.Writer) {
	fmt.Fprint(w, `comfase - communication fault and attack simulation engine

Subcommands:
  golden    run the attack-free reference simulation of the paper scenario
            flags: -seed N, -csv FILE (write the Fig. 4 time series),
                   -cpuprofile FILE, -memprofile FILE (pprof output)
  campaign  run an attack-injection campaign from a JSON config
            flags: -config FILE (required), -out FILE, -v (progress),
                   -workers N (0 = all cores), -shard i/n (grid slice),
                   -results FILE (stream per-experiment CSV rows; resume source),
                   -resume (skip experiments already in -results and -quarantine),
                   -jsonl FILE (stream JSON-lines results),
                   -retries N (re-run failed experiments before quarantining),
                   -max-failures N (failure budget; 0 = fail fast, -1 = unlimited),
                   -experiment-timeout D (per-experiment watchdog, e.g. 30s),
                   -event-budget N (per-experiment kernel event cap),
                   -invariants (runtime NaN/position/overlap checks),
                   -checkpoints=false (disable prefix-checkpoint forking),
                   -checkpoint-trie=false (disable duration chaining within a group),
                   -early-exit (stop experiments once their verdict is decided),
                   -early-exit-tolerance T, -early-exit-hold D (stability window),
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
            with -dir DIR campaigns arrive via "comfase submit", run
            oldest-first under a per-campaign -fairness-cap, and every
            campaign's config/results/quarantine/status files live side
            by side in DIR; -resume re-adopts everything in DIR, and
            -config becomes optional (fabric defaults only)
  submit    enqueue a campaign config on a "comfase serve -dir" service
            flags: -coordinator URL (required), -config FILE (required),
                   -name NAME (label shown by "comfase campaigns")
  campaigns inspect a campaign service: list all campaigns, or one of
            -id ID (status JSON), -cancel ID, -results ID [-o FILE]
            [-quarantine-out FILE]; plus -coordinator URL (required)
  work      execute leased ranges for a "comfase serve" coordinator; each
            campaign's config arrives with its first lease, an idle worker
            waits on the coordinator instead of sleeping, and it exits
            once told the run is done or draining
            flags: -coordinator URL (required unless -config supplies
                   fabric.addr), -config FILE (optional local defaults),
                   -workers N (local experiment pool; 0 = all cores),
                   -max-coordinator-retries N (consecutive failed calls
                   tolerated before giving up),
                   -retry-base D (backoff base; capped exponential with
                   jitter), -v (log lease progress)
  merge     merge per-shard result CSVs into one file ordered by expNr,
            and/or per-worker quarantine.jsonl files likewise
            flags: -out FILE (required with CSV inputs), then the shard
                   CSV paths; -quarantine FILE (repeatable quarantine
                   inputs) with -quarantine-out FILE
  list      print the registered scenario, attack and campaign families
            with their parameter schemas — the names a config file's
            campaign/matrix sections accept

A config file may replace the single "campaign" section with a "matrix"
section crossing registered scenarios with registered attacks; the grid
is flattened into one contiguous expNr space, so -shard, -resume and
merge work unchanged, and the results CSV gains a scenario column.
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

func runCampaign(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	cfgPath := fs.String("config", "", "JSON experiment configuration (required)")
	outPath := fs.String("out", "", "write the report to this file instead of stdout")
	verbose := fs.Bool("v", false, "print campaign progress")
	workers := fs.Int("workers", 1, "parallel experiment workers (0 = all cores)")
	resultsPath := fs.String("results", "", "stream per-experiment results to this CSV (resume source)")
	jsonlPath := fs.String("jsonl", "", "stream per-experiment results to this JSON-lines file")
	shardSpec := fs.String("shard", "", `grid slice "i/n" this process executes (merge files with: comfase merge)`)
	resume := fs.Bool("resume", false, "skip experiments already recorded in the results file")
	retries := fs.Int("retries", 0, "re-run a failed experiment up to N times before quarantining it")
	maxFailures := fs.Int("max-failures", 0, "persistent failures tolerated before aborting (0 = fail fast, negative = unlimited)")
	experimentTimeout := fs.Duration("experiment-timeout", 0, "per-experiment wall-clock watchdog (0 = none)")
	eventBudget := fs.Uint64("event-budget", 0, "per-experiment kernel event cap (0 = unlimited)")
	invariants := fs.Bool("invariants", false, "enable runtime invariant checks in every simulation step")
	checkpoints := fs.Bool("checkpoints", true, "fork same-start experiments from a prefix checkpoint (results are bit-identical either way)")
	checkpointTrie := fs.Bool("checkpoint-trie", true, "chain same-value experiments through mid-attack boundary snapshots (results are bit-identical either way)")
	earlyExit := fs.Bool("early-exit", false, "stop an experiment once its classification is decided (classification-identical; truncates raw kinematics)")
	earlyExitTolerance := fs.Float64("early-exit-tolerance", 0, "early-exit re-stabilisation speed tolerance in m/s (0 = 0.001 default)")
	earlyExitHold := fs.Duration("early-exit-hold", 0, "how long the platoon must hold within tolerance before exiting early (0 = 5s default)")
	quarantinePath := fs.String("quarantine", "", "append persistent-failure records to this JSON-lines file")
	heartbeatPath := fs.String("heartbeat", "", "periodically publish a JSON metrics snapshot to this file (atomic rename)")
	heartbeatInterval := fs.Duration("heartbeat-interval", 0, "heartbeat snapshot period (0 = 5s default)")
	metricsAddr := fs.String("metrics-addr", "", `serve live metrics over HTTP: /metrics, /debug/vars, /debug/pprof ("127.0.0.1:0" picks a port)`)
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *retries < 0 {
		return fmt.Errorf("campaign: negative -retries %d", *retries)
	}
	if *experimentTimeout < 0 {
		return fmt.Errorf("campaign: negative -experiment-timeout %v", *experimentTimeout)
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

	// Flags override config-file runtime settings.
	opts := runner.Options{
		Workers:            parsed.Runtime.Workers,
		Shard:              parsed.Runtime.Shard,
		Retries:            parsed.Runtime.Retries,
		RetryBackoff:       parsed.Runtime.RetryBackoff,
		ExperimentTimeout:  parsed.Runtime.ExperimentTimeout,
		MaxFailures:        parsed.Runtime.MaxFailures,
		DisableCheckpoints: parsed.Runtime.DisableCheckpoints,
		DisableTrie:        parsed.Runtime.DisableTrie,
	}
	explicit := map[string]bool{}
	fs.Visit(func(fl *flag.Flag) { explicit[fl.Name] = true })
	if explicit["workers"] || opts.Workers == 0 {
		opts.Workers = *workers
	}
	if opts.Workers == 0 {
		opts.Workers = -1 // all cores (pool maps <= 0 to GOMAXPROCS)
	}
	if *shardSpec != "" {
		if opts.Shard, err = runner.ParseShard(*shardSpec); err != nil {
			return err
		}
	}
	if explicit["retries"] {
		opts.Retries = *retries
	}
	if explicit["max-failures"] {
		opts.MaxFailures = *maxFailures
	}
	if explicit["experiment-timeout"] {
		opts.ExperimentTimeout = *experimentTimeout
	}
	if explicit["checkpoints"] {
		opts.DisableCheckpoints = !*checkpoints
	}
	if explicit["checkpoint-trie"] {
		opts.DisableTrie = !*checkpointTrie
	}
	quarantine := parsed.Runtime.QuarantineFile
	if explicit["quarantine"] {
		quarantine = *quarantinePath
	}
	heartbeat := parsed.Runtime.HeartbeatFile
	if explicit["heartbeat"] {
		heartbeat = *heartbeatPath
	}
	hbInterval := parsed.Runtime.HeartbeatInterval
	if explicit["heartbeat-interval"] {
		hbInterval = *heartbeatInterval
	}
	if hbInterval < 0 {
		return fmt.Errorf("campaign: negative -heartbeat-interval %v", hbInterval)
	}
	addr := parsed.Runtime.MetricsAddr
	if explicit["metrics-addr"] {
		addr = *metricsAddr
	}
	results := parsed.Runtime.ResultsFile
	if *resultsPath != "" {
		results = *resultsPath
	}
	if *resume && results == "" {
		return fmt.Errorf("campaign: -resume needs a results file (-results)")
	}

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
	if addr != "" {
		srv, err := obs.NewServer(addr, reg)
		if err != nil {
			return fmt.Errorf("campaign: metrics listener: %w", err)
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "metrics: http://%s/metrics (pprof at /debug/pprof/)\n", srv.Addr())
	}
	var hb *obs.Heartbeat
	if heartbeat != "" {
		hb = obs.NewHeartbeat(heartbeat, hbInterval, reg.Snapshot)
		if err := hb.Start(); err != nil {
			return fmt.Errorf("campaign: heartbeat: %w", err)
		}
	}

	// Every cell's engine takes the engine flag overrides and the metrics
	// registry.
	for i := range cells {
		ec := &cells[i].Engine
		if explicit["invariants"] {
			ec.Invariants = *invariants
		}
		if explicit["event-budget"] {
			ec.EventBudget = *eventBudget
		}
		if explicit["early-exit"] {
			ec.EarlyExit = *earlyExit
		}
		if explicit["early-exit-tolerance"] {
			ec.EarlyExitTolerance = *earlyExitTolerance
		}
		if explicit["early-exit-hold"] {
			ec.EarlyExitHold = des.FromSeconds(earlyExitHold.Seconds())
		}
		ec.Metrics = reg
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
	if opts.Shard.Enabled() {
		_, gridTotal := runner.GridSpan(cells)
		fmt.Fprintf(out, "shard %s: %d of the grid's %d experiments (merge shard files with: comfase merge)\n\n",
			opts.Shard, len(res.Experiments), gridTotal)
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

// runServe is the fabric service: it owns campaign grids, leases
// contiguous expNr ranges to `comfase work` processes, re-leases ranges
// whose worker goes silent past the TTL, and streams each campaign's
// merged results CSV (and quarantine) in grid order — byte-identical to
// a sequential run. With -dir, campaigns arrive via `comfase submit` and
// the service runs until drained; without it, the campaign -config names
// is added at startup and the service finishes with it.
func runServe(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	cfgPath := fs.String("config", "", "JSON experiment configuration (required); served to workers at registration")
	addr := fs.String("addr", "", `HTTP listen address (default config fabric.addr, else "127.0.0.1:0")`)
	resultsPath := fs.String("results", "", "merged results CSV (required; also the -resume source)")
	quarantinePath := fs.String("quarantine", "", "merged quarantine JSON-lines file")
	leaseSize := fs.Int("lease-size", 0, "grid points per worker lease (0 = config fabric.leaseSize, else 16)")
	leaseTTL := fs.Duration("lease-ttl", 0, "worker lease TTL; silence past it re-leases the range (0 = config fabric.leaseTTLS, else 15s)")
	dirFlag := fs.String("dir", "", "campaign service directory: enables submit mode, where campaigns arrive via `comfase submit` and every campaign's files live here")
	fairnessCap := fs.Int("fairness-cap", 0, "max chunks one campaign may hold leased while others wait (0 = config fabric.fairnessCap, else 4; submit mode only)")
	resume := fs.Bool("resume", false, "trust the merged prefix already in -results/-quarantine (or every campaign in -dir) and serve only the rest")
	maxFailures := fs.Int("max-failures", 0, "persistent failures tolerated before aborting (0 = fail fast, negative = unlimited)")
	verbose := fs.Bool("v", false, "log fabric events (registrations, leases, expiries)")
	heartbeatPath := fs.String("heartbeat", "", "periodically publish a JSON metrics snapshot to this file (atomic rename)")
	heartbeatInterval := fs.Duration("heartbeat-interval", 0, "heartbeat snapshot period (0 = 5s default)")
	metricsAddr := fs.String("metrics-addr", "", `serve live metrics over HTTP: /metrics, /debug/vars, /debug/pprof ("127.0.0.1:0" picks a port)`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cfgPath == "" && *dirFlag == "" {
		return fmt.Errorf("serve: -config is required")
	}
	// With -dir the config file is optional and only supplies fabric
	// defaults; campaigns bring their own configs over the API.
	var cfgJSON []byte
	var parsed *config.Parsed
	if *cfgPath != "" {
		var err error
		cfgJSON, err = os.ReadFile(*cfgPath)
		if err != nil {
			return err
		}
		parsed, err = config.Parse(bytes.NewReader(cfgJSON))
		if err != nil {
			return err
		}
	} else {
		parsed = &config.Parsed{}
	}
	explicit := map[string]bool{}
	fs.Visit(func(fl *flag.Flag) { explicit[fl.Name] = true })

	dir := parsed.Fabric.Dir
	if explicit["dir"] {
		dir = *dirFlag
	}
	if dir == "" && *resultsPath == "" {
		return fmt.Errorf("serve: -results is required")
	}
	listenAddr := parsed.Fabric.Addr
	if explicit["addr"] {
		listenAddr = *addr
	}
	if listenAddr == "" {
		listenAddr = "127.0.0.1:0"
	}
	size := parsed.Fabric.LeaseSize
	if explicit["lease-size"] {
		size = *leaseSize
	}
	ttl := parsed.Fabric.LeaseTTL
	if explicit["lease-ttl"] {
		ttl = *leaseTTL
	}
	fairness := parsed.Fabric.FairnessCap
	if explicit["fairness-cap"] {
		fairness = *fairnessCap
	}

	reg := obs.NewRegistry()
	var logf func(string, ...any)
	if *verbose {
		logf = func(format string, a ...any) { fmt.Fprintf(stdout, "serve: "+format+"\n", a...) }
	}
	svc, err := fabric.NewService(fabric.ServiceOptions{
		Dir:         dir,
		Resume:      *resume,
		LeaseSize:   size,
		LeaseTTL:    ttl,
		FairnessCap: fairness,
		Metrics:     reg,
		Logf:        logf,
	})
	if err != nil {
		return err
	}
	// Without -dir the -config campaign is the service's only one: it
	// writes no config or status document, and no quarantine file unless
	// -quarantine names one.
	var single fabric.CampaignStatus
	if dir == "" {
		var budget *int
		if explicit["max-failures"] {
			budget = maxFailures
		}
		files := runner.CampaignFiles{ID: "c1", Results: *resultsPath, Quarantine: *quarantinePath}
		if single, err = svc.Add("", cfgJSON, files, *resume, budget); err != nil {
			return err
		}
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
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return fmt.Errorf("serve: listen: %w", err)
	}
	httpSrv := &http.Server{Handler: svc.Handler()}
	go httpSrv.Serve(ln)
	url := "http://" + ln.Addr().String()
	if dir == "" {
		fmt.Fprintf(stdout, "fabric coordinator on %s: %d grid points (%d resumed), lease TTL %v\n",
			url, single.Total, single.Merged, svc.LeaseTTL())
	} else {
		fmt.Fprintf(stdout, "fabric campaign service on %s: %d campaign(s) in %s, lease TTL %v\n",
			url, len(svc.ListCampaigns()), dir, svc.LeaseTTL())
		fmt.Fprintf(stdout, "submit campaigns with: comfase submit -coordinator %s -config FILE\n", url)
	}
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
	if dir != "" {
		campaigns := svc.ListCampaigns()
		if drained {
			incomplete := 0
			for _, st := range campaigns {
				if st.State == fabric.StateQueued || st.State == fabric.StateRunning {
					incomplete++
				}
			}
			fmt.Fprintf(stdout, "service drained: %d campaign(s) incomplete; configs and merged prefixes are in %s — continue with -resume\n",
				incomplete, dir)
			return errInterrupted
		}
		fmt.Fprintf(stdout, "service drained: all %d campaign(s) complete in %s\n", len(campaigns), dir)
		return nil
	}
	st, _ := svc.CampaignStatusByID(single.ID)
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
	workers := fs.Int("workers", 0, "local parallel experiment workers (0 = the coordinator config's setting, else all cores)")
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

// stringList is a repeatable flag collecting its values in order.
type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func runMerge(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("merge", flag.ContinueOnError)
	outPath := fs.String("out", "", "merged CSV output path (required with CSV inputs)")
	var quarantineIn stringList
	fs.Var(&quarantineIn, "quarantine", "per-worker quarantine.jsonl input (repeatable)")
	quarantineOut := fs.String("quarantine-out", "", "merged quarantine output path (required with -quarantine)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 && len(quarantineIn) == 0 {
		return fmt.Errorf("merge: nothing to merge (pass shard CSVs and/or -quarantine inputs)")
	}
	if fs.NArg() > 0 {
		if *outPath == "" {
			return fmt.Errorf("merge: -out is required with CSV inputs")
		}
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		if err := runner.MergeResultFiles(f, fs.Args()...); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "merged %d result files into %s\n", fs.NArg(), *outPath)
	}
	if len(quarantineIn) > 0 {
		if *quarantineOut == "" {
			return fmt.Errorf("merge: -quarantine-out is required with -quarantine inputs")
		}
		f, err := os.Create(*quarantineOut)
		if err != nil {
			return err
		}
		if err := runner.MergeQuarantineFiles(f, quarantineIn...); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "merged %d quarantine files into %s\n", len(quarantineIn), *quarantineOut)
	}
	return nil
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
