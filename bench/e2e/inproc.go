package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"comfase/internal/config"
	"comfase/internal/core"
	"comfase/internal/fabric"
	"comfase/internal/obs"
	"comfase/internal/phy"
	"comfase/internal/platoon"
	"comfase/internal/runner"
	"comfase/internal/scenario"
	"comfase/internal/traffic"
)

// sampleEvery is how often a hot-path wrapper reads the clock: every call
// is counted, every sampleEvery-th is timed, and the timed share is
// scaled up to all calls.
const sampleEvery = 16

// callStats aggregates the calls through one wrapped boundary.
type callStats struct {
	calls atomic.Uint64
	timed atomic.Uint64
	ns    atomic.Int64
}

// sampled counts a call and, for every sampleEvery-th one, returns its
// start time for since.
func (c *callStats) sampled() (time.Time, bool) {
	if c.calls.Add(1)%sampleEvery != 0 {
		return time.Time{}, false
	}
	return time.Now(), true
}

func (c *callStats) since(t time.Time) {
	c.ns.Add(int64(max(time.Since(t)-clockCost, 0)))
	c.timed.Add(1)
}

// clockCost is the median time a bare time.Now/time.Since pair reads.
// Timed calls subtract it, so a call much shorter than a clock read is
// not charged the clock's own cost.
var clockCost = func() time.Duration {
	d := make([]float64, 1001)
	for i := range d {
		t := time.Now()
		d[i] = float64(time.Since(t))
	}
	return time.Duration(median(d))
}()

// timeAll times a call that is too rare to need sampling.
func (c *callStats) timeAll() func() {
	c.calls.Add(1)
	t := time.Now()
	return func() { c.since(t) }
}

// seconds estimates the total time spent in the boundary.
func (c *callStats) seconds() float64 {
	timed := c.timed.Load()
	if timed == 0 {
		return 0
	}
	return float64(c.ns.Load()) / float64(timed) * float64(c.calls.Load()) / 1e9
}

// tracer wraps the public layer boundaries of one traced iteration and
// records coarse spans into a shared log. Hot-path wrappers keep only
// aggregate counters. A nil tracer wraps nothing and records nothing, so
// the untraced twin runs the same harness code.
type tracer struct {
	log  *spanLog
	root int

	pathloss, maneuver, update callStats
	sinkPut, execute           callStats
	sinkBytes                  atomic.Uint64
	rpc                        map[string]*callStats // by protocol path
	rpcBytes                   atomic.Uint64
}

func newTracer(log *spanLog, root int) *tracer {
	t := &tracer{log: log, root: root, rpc: map[string]*callStats{}}
	for _, p := range []string{fabric.PathRegister, fabric.PathLease, fabric.PathReport, fabric.PathComplete} {
		t.rpc[p] = new(callStats)
	}
	return t
}

// span opens a child span of the iteration and returns its closer.
func (t *tracer) span(name string) func() {
	if t == nil {
		return func() {}
	}
	_, end := t.log.begin(name, t.root)
	return end
}

// wrapEngine routes the engine's controllers, path-loss model and leader
// maneuver through timing wrappers.
func (t *tracer) wrapEngine(c *core.EngineConfig) {
	if t == nil {
		return
	}
	factory := c.Controllers
	if factory == nil {
		factory = scenario.DefaultControllers()
	}
	c.Controllers = func(i int) platoon.Controller { return wrapController(factory(i), &t.update) }
	if c.Comm.Channel.PathLoss != nil {
		c.Comm.Channel.PathLoss = &timedPathLoss{inner: c.Comm.Channel.PathLoss, st: &t.pathloss}
	}
	if c.Scenario.Maneuver != nil {
		c.Scenario.Maneuver = &timedManeuver{inner: c.Scenario.Maneuver, st: &t.maneuver}
	}
}

func (t *tracer) wrapSink(s runner.Sink) runner.Sink {
	if t == nil {
		return s
	}
	return &timedSink{inner: s, st: &t.sinkPut}
}

type timedPathLoss struct {
	inner phy.PathLoss
	st    *callStats
}

func (p *timedPathLoss) Name() string { return p.inner.Name() }

func (p *timedPathLoss) LossDB(distance, freqHz float64) float64 {
	t, ok := p.st.sampled()
	v := p.inner.LossDB(distance, freqHz)
	if ok {
		p.st.since(t)
	}
	return v
}

type timedManeuver struct {
	inner traffic.Maneuver
	st    *callStats
}

func (m *timedManeuver) TargetSpeed(at float64) float64 {
	t, ok := m.st.sampled()
	v := m.inner.TargetSpeed(at)
	if ok {
		m.st.since(t)
	}
	return v
}

func (m *timedManeuver) FeedforwardAccel(at float64) float64 {
	t, ok := m.st.sampled()
	v := m.inner.FeedforwardAccel(at)
	if ok {
		m.st.since(t)
	}
	return v
}

// wrapController times a follower controller. When the controller can be
// checkpointed the wrapper can be too, so the traced run forks and chains
// exactly like the untraced one instead of falling back to fresh builds.
func wrapController(c platoon.Controller, st *callStats) platoon.Controller {
	if c == nil {
		return nil
	}
	tc := timedController{inner: c, st: st}
	if sc, ok := c.(platoon.StatefulController); ok {
		return &timedStatefulController{timedController: tc, sc: sc}
	}
	return &tc
}

type timedController struct {
	inner platoon.Controller
	st    *callStats
}

func (c *timedController) Name() string { return c.inner.Name() }
func (c *timedController) Reset()       { c.inner.Reset() }

func (c *timedController) Update(dt float64, self platoon.Snapshot, leader, pred platoon.KinState) float64 {
	t, ok := c.st.sampled()
	v := c.inner.Update(dt, self, leader, pred)
	if ok {
		c.st.since(t)
	}
	return v
}

type timedStatefulController struct {
	timedController
	sc platoon.StatefulController
}

func (c *timedStatefulController) SaveState() platoon.ControllerState  { return c.sc.SaveState() }
func (c *timedStatefulController) LoadState(s platoon.ControllerState) { c.sc.LoadState(s) }

type timedSink struct {
	inner runner.Sink
	st    *callStats
}

func (s *timedSink) Put(res core.ExperimentResult) error {
	defer s.st.timeAll()()
	return s.inner.Put(res)
}

func (s *timedSink) Flush() error { return s.inner.Flush() }

type countingWriter struct {
	w io.Writer
	n *atomic.Uint64
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(uint64(n))
	return n, err
}

// runInProcess runs one iteration inside this process the way
// `comfase campaign -workers 1` does: config.Parse, then
// core.NewEngine + runner.New(...).Run, or runner.RunMatrix for a matrix
// config, with the CLI's always-on metrics registry. The results CSV
// goes to resultsPath; the registry's counters are returned.
func runInProcess(ctx context.Context, cfg []byte, resultsPath string, t *tracer) (map[string]uint64, error) {
	end := t.span("parse")
	parsed, err := config.Parse(bytes.NewReader(cfg))
	end()
	if err != nil {
		return nil, err
	}
	f, err := os.Create(resultsPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out io.Writer = f
	if t != nil {
		out = countingWriter{w: f, n: &t.sinkBytes}
	}
	reg := obs.NewRegistry()
	opts := runner.Options{Workers: 1, Metrics: reg}
	defer t.span("run")()
	if len(parsed.Cells) > 0 {
		for i := range parsed.Cells {
			parsed.Cells[i].Engine.Metrics = reg
			t.wrapEngine(&parsed.Cells[i].Engine)
		}
		_, err = runner.RunMatrix(ctx, parsed.Cells, opts, t.wrapSink(runner.NewMatrixCSVSink(out)))
	} else {
		parsed.Engine.Metrics = reg
		t.wrapEngine(&parsed.Engine)
		var eng *core.Engine
		var r *runner.Runner
		if eng, err = core.NewEngine(parsed.Engine); err == nil {
			if r, err = runner.New(eng, opts, t.wrapSink(runner.NewCSVSink(out))); err == nil {
				_, err = r.Run(ctx, parsed.Campaign)
			}
		}
	}
	if err != nil {
		return nil, err
	}
	return reg.Snapshot().Counters, f.Close()
}

// goldenSeconds times one golden run of cfg's scenario (the first cell's
// for a matrix) on an unwrapped engine of its own. The runner and the
// fabric executor start their golden runs inside calls the tracer does
// not wrap, so core.golden_s is measured apart from the iterations.
func goldenSeconds(ctx context.Context, cfg []byte) (float64, error) {
	parsed, err := config.Parse(bytes.NewReader(cfg))
	if err != nil {
		return 0, err
	}
	ec := parsed.Engine
	if len(parsed.Cells) > 0 {
		ec = parsed.Cells[0].Engine
	}
	eng, err := core.NewEngine(ec)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	err = eng.EnsureGolden(ctx)
	return time.Since(start).Seconds(), err
}

// runFabricInProcess drains one iteration through a `comfase serve`
// subprocess and a single fabric worker inside this process with one
// experiment thread, the way `comfase work -workers 1` runs it. Traced,
// the worker's HTTP transport and its production executor are wrapped.
func runFabricInProcess(ctx context.Context, bin, cfgPath, dir string, t *tracer) (map[string]uint64, error) {
	ctx, cancel := context.WithTimeout(ctx, iterationTimeout)
	defer cancel()
	results := filepath.Join(dir, "results.csv")
	serve, err := spawn(ctx, dir, "serve", bin, "serve", "-config", cfgPath, "-results", results, "-addr", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	counters, err := func() (map[string]uint64, error) {
		url, err := serveURL(ctx, serve)
		if err != nil {
			return nil, err
		}
		reg := obs.NewRegistry()
		opts := fabric.WorkerOptions{Coordinator: url, Workers: 1, Metrics: reg}
		if t != nil {
			opts.Client = &http.Client{Timeout: 30 * time.Second, Transport: &timedTransport{inner: http.DefaultTransport, t: t}}
			opts.NewExecutor = func(cfgJSON []byte) (fabric.Executor, error) {
				defer t.span("parse")()
				e, err := fabric.NewExecutor(cfgJSON, fabric.ExecutorOptions{Workers: 1, Metrics: reg})
				if err != nil {
					return nil, err
				}
				return &timedExecutor{inner: e, t: t}, nil
			}
		}
		w, err := fabric.NewWorker(opts)
		if err != nil {
			return nil, err
		}
		if err := w.Run(ctx); err != nil {
			return nil, err
		}
		return reg.Snapshot().Counters, nil
	}()
	if err != nil {
		cancel()
	}
	if werr := serve.wait(); err == nil {
		err = werr
	}
	return counters, err
}

// timedExecutor counts and times the leases the production executor runs.
type timedExecutor struct {
	inner fabric.Executor
	t     *tracer
}

func (e *timedExecutor) Execute(ctx context.Context, from, to int) ([]fabric.ResultRow, []fabric.FailureRow, error) {
	defer e.t.execute.timeAll()()
	defer e.t.span("execute")()
	return e.inner.Execute(ctx, from, to)
}

// timedTransport counts and times the worker's coordinator calls per
// protocol path, with the bytes sent and received.
type timedTransport struct {
	inner http.RoundTripper
	t     *tracer
}

func (tt *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	st := tt.t.rpc[req.URL.Path]
	if st == nil {
		return tt.inner.RoundTrip(req)
	}
	st.calls.Add(1)
	start := time.Now()
	end := tt.t.span("rpc" + req.URL.Path)
	if req.ContentLength > 0 {
		tt.t.rpcBytes.Add(uint64(req.ContentLength))
	}
	resp, err := tt.inner.RoundTrip(req)
	if err != nil {
		end()
		st.since(start)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { end(); st.since(start) }, n: &tt.t.rpcBytes}
	return resp, nil
}

// timedBody ends an RPC's timing when the caller closes the response.
type timedBody struct {
	io.ReadCloser
	done func()
	n    *atomic.Uint64
	once sync.Once
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(uint64(n))
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}
