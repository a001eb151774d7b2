package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minIterations keeps a run's medians meaningful when one iteration takes
// a large share of the run time.
const minIterations = 3

// iterationTimeout bounds one iteration, so a wedged process cannot hold
// a run past its exit deadline.
const iterationTimeout = 150 * time.Second

// sample is one iteration measured from outside the program.
type sample struct {
	// wall runs from spawning the first process until every process exited.
	wall float64
	// setup runs from spawn until the first data row is on disk.
	setup float64
	// drain runs from spawn until the results file last grew, i.e. the
	// last row is on disk.
	drain float64
	// cpu is user+system CPU summed over the processes.
	cpu float64
	// rssMB sums each process's peak resident set.
	rssMB float64
}

// e2eRun repeats iterations of w for about seconds (at least
// minIterations) and reports the median of each end-to-end metric,
// calibrated to host speed (see calibrate.go). The uncalibrated medians
// are printed alongside.
func e2eRun(ctx context.Context, bin string, w workload, seed uint64, seconds float64, dir string, defs []benchMetric) (*result, error) {
	cfgPath := filepath.Join(dir, "config.json")
	if err := os.WriteFile(cfgPath, w.config(seed), 0o644); err != nil {
		return nil, err
	}
	res := &result{}
	samples := map[string][]float64{}
	raw := map[string][]float64{}
	add := func(m map[string][]float64, s sample, scale float64) {
		m["experiments_per_s"] = append(m["experiments_per_s"], float64(w.grid)/(s.drain*scale))
		m["wall_s"] = append(m["wall_s"], s.wall*scale)
		m["setup_s"] = append(m["setup_s"], s.setup*scale)
		m["cpu_s"] = append(m["cpu_s"], s.cpu*scale)
		m["peak_rss_mb"] = append(m["peak_rss_mb"], s.rssMB)
	}
	ref := ""
	calib := newCalibrator()
	cal := []float64{calib.measure()}
	start := time.Now()
	for n := 1; ; n++ {
		itStart := time.Now()
		s, csv, err := e2eIteration(ctx, bin, w, cfgPath, dir)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		cal = append(cal, calib.measure())
		res.Attempted += w.grid
		if err == nil {
			err = verify(w, seed, csv, &ref)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s iteration %d: %v\n", w.name, n, err)
			res.Failed += w.grid
			break
		}
		res.Failed += checkRows(csv, w.grid)
		add(samples, s, calibrationRef/((cal[n-1]+cal[n])/2))
		add(raw, s, 1)
		if !timeForMore(n, minIterations, start, time.Since(itStart), seconds) {
			break
		}
	}
	res.Correct = res.Failed == 0
	if err := res.summarize(defs, samples); err != nil {
		return nil, err
	}
	if len(raw["wall_s"]) > 0 {
		fmt.Printf("host calibration kernel: median %.4g s (quiet baseline %.4g s); uncalibrated medians: experiments_per_s %.6g, wall_s %.6g, setup_s %.6g, cpu_s %.6g\n",
			median(cal), calibrationRef, median(raw["experiments_per_s"]), median(raw["wall_s"]), median(raw["setup_s"]), median(raw["cpu_s"]))
	}
	return res, nil
}

// timeForMore reports whether a run that started at start and has done n
// iterations, the last of which took last, should start another: always
// below least iterations, and otherwise while one more is expected to end
// within seconds.
func timeForMore(n, least int, start time.Time, last time.Duration, seconds float64) bool {
	return n < least || time.Since(start)+last <= time.Duration(seconds*float64(time.Second))
}

// verify checks a results CSV against the oracle: every iteration of a
// run must produce the same bytes, and the pinned digest where it applies.
// Row-level structure is counted separately by checkRows.
func verify(w workload, seed uint64, csv []byte, ref *string) error {
	sum := sha256.Sum256(csv)
	digest := hex.EncodeToString(sum[:])
	switch {
	case *ref == "":
		*ref = digest
	case digest != *ref:
		return fmt.Errorf("results sha256 %s differs from the run's first iteration %s", digest, *ref)
	}
	if (w.allSeeds || seed == pinSeed) && digest != w.digest {
		return fmt.Errorf("results sha256 %s, pinned %s", digest, w.digest)
	}
	return nil
}

// e2eIteration drains one iteration of w through the comfase CLI and
// returns its measurement and the results CSV.
func e2eIteration(ctx context.Context, bin string, w workload, cfgPath, dir string) (sample, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, iterationTimeout)
	defer cancel()
	results := filepath.Join(dir, "results.csv")
	if err := os.Remove(results); err != nil && !errors.Is(err, os.ErrNotExist) {
		return sample{}, nil, err
	}

	t0 := time.Now()
	watch := watchResults(results, t0)
	procs, err := startIteration(ctx, bin, w, cfgPath, dir, results)
	if err != nil {
		cancel()
	}
	var s sample
	if werr := waitAll(procs, cancel, &s); err == nil {
		err = werr
	}
	s.wall = time.Since(t0).Seconds()
	first, last, seen := watch.stop()
	if err != nil {
		return sample{}, nil, err
	}
	if !seen {
		return sample{}, nil, errors.New("no data row ever reached the results file")
	}
	s.setup, s.drain = first.Seconds(), last.Seconds()
	csv, err := os.ReadFile(results)
	return s, csv, err
}

// startIteration spawns the processes that drain one iteration of w into
// results: `comfase campaign -workers 2`, or the fabric fleet.
func startIteration(ctx context.Context, bin string, w workload, cfgPath, dir, results string) ([]*proc, error) {
	if w.fabric {
		return spawnFabric(ctx, dir, bin, cfgPath, results)
	}
	p, err := spawn(ctx, dir, "campaign", bin, "campaign", "-config", cfgPath, "-workers", "2",
		"-results", results, "-out", filepath.Join(dir, "report.txt"))
	if err != nil {
		return nil, err
	}
	return []*proc{p}, nil
}

// spawnFabric starts `comfase serve` on a loopback port and, once it
// prints its address, two single-threaded `comfase work` processes, all
// with the fabric's default lease size and TTL.
func spawnFabric(ctx context.Context, dir, bin, cfgPath, results string) ([]*proc, error) {
	serve, err := spawn(ctx, dir, "serve", bin, "serve", "-config", cfgPath, "-results", results, "-addr", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	procs := []*proc{serve}
	url, err := serveURL(ctx, serve)
	if err != nil {
		return procs, err
	}
	for i := 1; i <= 2; i++ {
		p, err := spawn(ctx, dir, fmt.Sprintf("work%d", i), bin, "work", "-coordinator", url, "-workers", "1")
		if err != nil {
			return procs, err
		}
		procs = append(procs, p)
	}
	return procs, nil
}

// proc is a child process whose combined output goes to a log file.
type proc struct {
	name   string
	cmd    *exec.Cmd
	log    string
	exited chan struct{} // closed once Wait has returned
	err    error         // Wait's result, set before exited is closed
	polled chan struct{} // closed once the RSS poller has returned
	hwmKB  int64         // the last peak RSS the poller read
}

// rssPollInterval is how often a child's peak RSS is read. The peak is
// polled from /proc rather than taken from rusage because Go starts
// children with vfork semantics, and Linux then charges the driver's own
// peak RSS to every child's ru_maxrss.
const rssPollInterval = 10 * time.Millisecond

func spawn(ctx context.Context, dir, name, bin string, args ...string) (*proc, error) {
	logPath := filepath.Join(dir, name+".log")
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout, cmd.Stderr = f, f
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: logPath, exited: make(chan struct{}), polled: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		f.Close()
		close(p.exited)
	}()
	go func() {
		defer close(p.polled)
		tick := time.NewTicker(rssPollInterval)
		defer tick.Stop()
		for {
			if kb, ok := peakRSSKB(cmd.Process.Pid); ok {
				p.hwmKB = kb
			}
			select {
			case <-p.exited:
				return
			case <-tick.C:
			}
		}
	}()
	return p, nil
}

// peakRSSKB reads a live process's resident-set high-water mark (VmHWM).
func peakRSSKB(pid int) (int64, bool) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb, err == nil
		}
	}
	return 0, false
}

// wait blocks until the process has exited and returns its failure with
// the tail of its log.
func (p *proc) wait() error {
	<-p.exited
	<-p.polled
	if p.err != nil {
		return fmt.Errorf("%s: %w%s", p.name, p.err, logTail(p.log))
	}
	return nil
}

// waitAll waits until every process has exited, adding their CPU time and
// peak RSS to s. The first failure cancels the rest, so a dead coordinator
// cannot leave its workers retrying.
func waitAll(procs []*proc, cancel context.CancelFunc, s *sample) error {
	var first error
	for _, p := range procs {
		if err := p.wait(); err != nil && first == nil {
			first = err
			cancel()
		}
		if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			s.cpu += seconds(ru.Utime) + seconds(ru.Stime)
		}
		s.rssMB += float64(p.hwmKB) / 1024
	}
	return first
}

func seconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

var urlPattern = regexp.MustCompile(`http://[0-9.]+:[0-9]+`)

// serveURL polls the coordinator's log until it prints its address.
func serveURL(ctx context.Context, serve *proc) (string, error) {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		if data, err := os.ReadFile(serve.log); err == nil {
			if url := urlPattern.Find(data); url != nil {
				return string(url), nil
			}
		}
		select {
		case <-ctx.Done():
			return "", ctx.Err()
		case <-serve.exited:
			return "", fmt.Errorf("serve exited before printing its address: %v", serve.wait())
		case <-tick.C:
		}
	}
}

func logTail(path string) string {
	data, err := os.ReadFile(path)
	if err != nil || len(data) == 0 {
		return ""
	}
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return "\n" + string(bytes.TrimSpace(data))
}

// resultsWatch polls a results file every millisecond and records when
// its first data row appeared and when it last grew. The CSV sinks write
// through on every row, so the file's size tracks completed rows.
type resultsWatch struct {
	stopc chan struct{}
	done  chan struct{}

	size        int64
	first, last time.Duration
	seen        bool
}

func watchResults(path string, t0 time.Time) *resultsWatch {
	w := &resultsWatch{stopc: make(chan struct{}), done: make(chan struct{}), size: -1}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			w.poll(path, t0)
			select {
			case <-w.stopc:
				w.poll(path, t0)
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

func (w *resultsWatch) poll(path string, t0 time.Time) {
	fi, err := os.Stat(path)
	if err != nil || fi.Size() == w.size {
		return
	}
	now := time.Since(t0)
	w.size, w.last = fi.Size(), now
	if !w.seen && hasDataRow(path) {
		w.seen, w.first = true, now
	}
}

// hasDataRow reports whether the file holds a header and one full row.
func hasDataRow(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	head := make([]byte, 64<<10)
	n, _ := io.ReadFull(f, head)
	return bytes.Count(head[:n], []byte("\n")) >= 2
}

// stop ends polling and returns the first-row and last-growth offsets.
func (w *resultsWatch) stop() (first, last time.Duration, seen bool) {
	close(w.stopc)
	<-w.done
	return w.first, w.last, w.seen
}
