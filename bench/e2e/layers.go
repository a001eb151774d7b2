package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"text/tabwriter"
	"time"

	"comfase/internal/config"
	"comfase/internal/fabric"
)

// traceRun builds the per-layer ledger of w. Each round runs one
// end-to-end iteration through the CLI (for the scaling efficiency), one
// golden run on its own, an untraced in-process iteration at one worker
// thread, and its traced twin; rounds repeat for about seconds, at least
// once. The three iterations must produce the same results bytes, or the
// traced run is invalid. The two in-process iterations are CPU-profiled
// and the profiles are rolled up by layer.
func traceRun(ctx context.Context, bin string, w workload, seed uint64, seconds float64, dir string, defs []benchMetric) (*result, error) {
	cfg := w.config(seed)
	cfgPath := filepath.Join(dir, "config.json")
	if err := os.WriteFile(cfgPath, cfg, 0o644); err != nil {
		return nil, err
	}
	horizon, err := horizonMs(cfg)
	if err != nil {
		return nil, err
	}
	log := &spanLog{t0: time.Now()}
	res := &result{}
	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	var profiles []string
	ref := ""
	start := time.Now()
	for n := 1; ; n++ {
		roundStart := time.Now()
		res.Attempted += w.grid
		e2e, csv, err := e2eIteration(ctx, bin, w, cfgPath, dir)
		if err == nil {
			err = verify(w, seed, csv, &ref)
		}
		var golden float64
		if err == nil {
			_, end := log.begin("golden", 0)
			golden, err = goldenSeconds(ctx, cfg)
			end()
		}
		var u, t inprocRun
		if err == nil {
			u, err = inprocIteration(ctx, bin, w, cfg, cfgPath, dir, nil, filepath.Join(dir, fmt.Sprintf("untraced%d.pprof", n)))
		}
		if err == nil {
			err = verify(w, seed, u.csv, &ref)
		}
		if err == nil {
			root, endRoot := log.begin("iteration", 0)
			tr := newTracer(log, root)
			t, err = inprocIteration(ctx, bin, w, cfg, cfgPath, dir, tr, filepath.Join(dir, fmt.Sprintf("traced%d.pprof", n)))
			endRoot()
			t.tracer = tr
		}
		if err == nil {
			if err = verify(w, seed, t.csv, &ref); err != nil {
				err = fmt.Errorf("traced run invalid: %w", err)
			}
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s round %d: %v\n", w.name, n, err)
			res.Failed += w.grid
			break
		}
		res.Failed += checkRows(t.csv, w.grid)
		profiles = append(profiles, u.profile, t.profile)
		for name, v := range layerSample(w, horizon, golden, e2e, u, t, log) {
			add(name, v)
		}
		if !timeForMore(n, 1, start, time.Since(roundStart), seconds) {
			break
		}
	}
	if len(profiles) > 0 {
		shares, err := cpuShares(ctx, profiles)
		if err != nil {
			return nil, err
		}
		for _, l := range cpuLayers {
			add("cpu_frac."+l, shares[l])
		}
	}
	if err := log.write(filepath.Join(outDir, w.name+".spans.jsonl")); err != nil {
		return nil, err
	}
	if err := log.printSummary(os.Stdout); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, res.summarize(defs, samples)
}

// inprocRun is one in-process iteration.
type inprocRun struct {
	csv      []byte
	counters map[string]uint64 // the iteration's obs registry
	wall     float64
	rt       runtimeDelta
	profile  string
	tracer   *tracer
}

// inprocIteration runs one in-process iteration under a CPU profile, with
// the runtime's allocation and GC counters read around it.
func inprocIteration(ctx context.Context, bin string, w workload, cfg []byte, cfgPath, dir string, t *tracer, profile string) (inprocRun, error) {
	run := inprocRun{profile: profile}
	results := filepath.Join(dir, "results.csv")
	f, err := os.Create(profile)
	if err != nil {
		return run, err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return run, err
	}
	before := readRuntime()
	start := time.Now()
	if w.fabric {
		run.counters, err = runFabricInProcess(ctx, bin, cfgPath, dir, t)
	} else {
		run.counters, err = runInProcess(ctx, cfg, results, t)
	}
	run.wall = time.Since(start).Seconds()
	run.rt = readRuntime().minus(before)
	pprof.StopCPUProfile()
	if err != nil {
		return run, err
	}
	if run.csv, err = os.ReadFile(results); err != nil {
		return run, err
	}
	return run, f.Close()
}

// layerSample derives one round's per-layer values from the end-to-end
// iteration e2e, the golden run's seconds, the untraced in-process
// iteration u and its traced twin t; horizon is one experiment's
// simulated milliseconds. Times spent behind a wrapped boundary are
// shares of the traced iteration's time. The fabric worker runs the
// production executor, whose engine and sink are not wrapped, so on
// fabric-delay those shares and call counts read 0.
func layerSample(w workload, horizon, golden float64, e2e sample, u, t inprocRun, log *spanLog) map[string]float64 {
	tr, c := t.tracer, t.counters
	rows := float64(c["runner.results_emitted"])
	m := map[string]float64{
		"phy.pathloss_calls":        float64(tr.pathloss.calls.Load()),
		"phy.pathloss_frac":         tr.pathloss.seconds() / t.wall,
		"traffic.maneuver_calls":    float64(tr.maneuver.calls.Load()),
		"traffic.maneuver_frac":     tr.maneuver.seconds() / t.wall,
		"platoon.update_calls":      float64(tr.update.calls.Load()),
		"platoon.update_frac":       tr.update.seconds() / t.wall,
		"core.golden_s":             golden,
		"core.golden_runs":          float64(c["engine.golden_runs"]),
		"core.fresh_builds":         float64(c["engine.fresh_builds"]),
		"core.checkpoint_forks":     float64(c["engine.checkpoint_forks"]),
		"core.pool_hit_frac":        ratio(c["engine.workspace_pool_hits"], c["engine.workspace_pool_hits"]+c["engine.workspace_pool_misses"]),
		"core.trie_sim_saved_frac":  float64(c["engine.trie_sim_millis_saved"]) / (rows * horizon),
		"des.events":                float64(c["kernel.events_executed"]),
		"des.snapshots":             float64(c["kernel.snapshots"]),
		"des.restores":              float64(c["kernel.restores"]),
		"des.events_per_s":          float64(u.counters["kernel.events_executed"]) / u.wall,
		"config.parse_s":            log.total(tr.root, "parse"),
		"runner.run_s":              log.total(tr.root, "run"),
		"runner.rows":               rows,
		"runner.sink_put_frac":      tr.sinkPut.seconds() / t.wall,
		"runner.sink_bytes":         float64(tr.sinkBytes.Load()),
		"runner.scaling_eff":        float64(w.grid) / e2e.drain / (2 * float64(w.grid) / u.wall),
		"runtime.alloc_bytes":       u.rt.allocBytes,
		"runtime.alloc_objects":     u.rt.allocObjects,
		"runtime.gc_cycles":         u.rt.gcCycles,
		"runtime.gc_cpu_s":          u.rt.gcCPU,
		"trace.overhead_frac":       t.wall/u.wall - 1,
		"fabric.lease_rpc_calls":    float64(tr.rpc[fabric.PathLease].calls.Load()),
		"fabric.lease_rpc_frac":     tr.rpc[fabric.PathLease].seconds() / t.wall,
		"fabric.complete_rpc_calls": float64(tr.rpc[fabric.PathComplete].calls.Load()),
		"fabric.complete_rpc_frac":  tr.rpc[fabric.PathComplete].seconds() / t.wall,
		"fabric.report_rpc_calls":   float64(tr.rpc[fabric.PathReport].calls.Load()),
		"fabric.rpc_bytes":          float64(tr.rpcBytes.Load()),
		"fabric.leases":             float64(tr.execute.calls.Load()),
		"fabric.stale":              float64(c["fabric.worker.completions_stale"]),
		"fabric.worker_idle_frac":   0,
	}
	if w.fabric {
		// The executor runs each lease, golden run included, in one call.
		m["runner.run_s"] = log.total(tr.root, "execute")
		m["fabric.worker_idle_frac"] = 1 - tr.execute.seconds()/t.wall
	}
	return m
}

// horizonMs is the simulated horizon of one experiment of cfg.
func horizonMs(cfg []byte) (float64, error) {
	parsed, err := config.Parse(bytes.NewReader(cfg))
	if err != nil {
		return 0, err
	}
	ts := parsed.Engine.Scenario
	if len(parsed.Cells) > 0 {
		ts = parsed.Cells[0].Engine.Scenario
	}
	return ts.TotalSimTime.Seconds() * 1000, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// runtimeDelta is what the Go runtime reports for one iteration.
type runtimeDelta struct {
	allocBytes, allocObjects, gcCycles, gcCPU float64
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return runtimeDelta{v[0], v[1], v[2], v[3]}
}

func (a runtimeDelta) minus(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.allocBytes - b.allocBytes, a.allocObjects - b.allocObjects, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU}
}

// span is one coarse layer boundary of a traced iteration: parse, golden
// run, run, lease execution or coordinator call. Hot paths keep counters
// instead.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for an iteration
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the run began
	End    float64 `json:"end_s"`
}

// spanLog keeps a run's spans in memory until it is written out at exit.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its ID and the function that closes it.
func (l *spanLog) begin(name string, parent int) (int, func()) {
	l.mu.Lock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(l.t0).Seconds()})
	l.mu.Unlock()
	return id, func() {
		end := time.Since(l.t0).Seconds()
		l.mu.Lock()
		l.spans[id-1].End = end
		l.mu.Unlock()
	}
}

// total sums the durations of the named children of one span.
func (l *spanLog) total(parent int, name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	sum := 0.0
	for _, s := range l.spans {
		if s.Parent == parent && s.Name == name {
			sum += s.End - s.Start
		}
	}
	return sum
}

func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// spanTotal aggregates the spans of one name: self time is a span's
// duration minus the part its children cover.
type spanTotal struct {
	name        string
	count       int
	total, self float64
}

func summarizeSpans(spans []span) []spanTotal {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	byName := map[string]*spanTotal{}
	var order []string
	for _, s := range spans {
		t := byName[s.Name]
		if t == nil {
			t = &spanTotal{name: s.Name}
			byName[s.Name] = t
			order = append(order, s.Name)
		}
		d := s.End - s.Start
		t.count++
		t.total += d
		t.self += d - covered(s, children[s.ID])
	}
	out := make([]spanTotal, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	return out
}

// covered is the length of the union of the children's intervals within
// the parent's.
func covered(parent span, children []span) float64 {
	iv := make([][2]float64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	sum, end := 0.0, parent.Start
	for _, x := range iv {
		if x[1] <= end {
			continue
		}
		sum += x[1] - max(x[0], end)
		end = x[1]
	}
	return sum
}

func (l *spanLog) printSummary(w io.Writer) error {
	l.mu.Lock()
	totals := summarizeSpans(l.spans)
	l.mu.Unlock()
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "span\tcount\ttotal_s\tself_s\t")
	for _, t := range totals {
		fmt.Fprintf(tw, "%s\t%d\t%.4f\t%.4f\t\n", t.name, t.count, t.total, t.self)
	}
	return tw.Flush()
}
