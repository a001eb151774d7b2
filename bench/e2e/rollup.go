package main

import (
	"bufio"
	"context"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// cpuLayers are the layers CPU samples are charged to, in report order.
var cpuLayers = []string{"phy", "nic", "traffic", "platoon", "core", "des", "trace", "runner", "fabric", "runtime", "harness", "other"}

// packageLayers maps comfase package paths to layers; the first matching
// prefix wins and any other comfase/internal package counts as core.
var packageLayers = []struct{ prefix, layer string }{
	{"comfase/internal/phy.", "phy"},
	{"comfase/internal/mac.", "nic"},
	{"comfase/internal/nic.", "nic"},
	{"comfase/internal/wave1609.", "nic"},
	{"comfase/internal/msg.", "nic"},
	{"comfase/internal/traffic.", "traffic"},
	{"comfase/internal/vehicle.", "traffic"},
	{"comfase/internal/roadnet.", "traffic"},
	{"comfase/internal/geo.", "traffic"},
	{"comfase/internal/platoon.", "platoon"},
	{"comfase/internal/safety.", "platoon"},
	{"comfase/internal/teleop.", "platoon"},
	{"comfase/internal/sim/", "des"},
	{"comfase/internal/trace.", "trace"},
	{"comfase/internal/classify.", "trace"},
	{"comfase/internal/analysis.", "trace"},
	{"comfase/internal/runner", "runner"},
	{"comfase/internal/obs.", "runner"},
	{"comfase/internal/fabric.", "fabric"},
	{"comfase/internal/", "core"},
	// The benchmark's own code: its wrappers, loops and polling.
	{"main.", "harness"},
}

// frameLayer is the layer a function belongs to, or "" for code outside
// comfase and the benchmark.
func frameLayer(fn string) string {
	for _, p := range packageLayers {
		if strings.HasPrefix(fn, p.prefix) {
			return p.layer
		}
	}
	return ""
}

// rollupTraces reads `go tool pprof -traces` output and charges each
// sample to the layer of its innermost comfase or benchmark frame, so
// math.Pow under phy counts as phy and a copy under nic as nic. Samples
// with no such frame count as runtime when a runtime frame is on the
// stack (GC workers, the scheduler) and as other otherwise. It returns
// seconds per layer.
func rollupTraces(text string) (map[string]float64, error) {
	out := map[string]float64{}
	var value float64
	var frames []string
	flush := func() {
		if frames == nil {
			return
		}
		layer := "other"
		for _, fn := range frames {
			if l := frameLayer(fn); l != "" {
				layer = l
				break
			}
			if strings.HasPrefix(fn, "runtime.") {
				layer = "runtime"
			}
		}
		out[layer] += value
		frames = nil
	}
	inTraces := false
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTraces = true
			continue
		}
		fields := strings.Fields(line)
		if !inTraces || len(fields) == 0 {
			continue
		}
		if frames == nil {
			// The first line of a trace is its sample value and leaf frame.
			v, err := parseSampleValue(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: %q: %w", line, err)
			}
			if len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: %q: no frame", line)
			}
			value, frames = v, []string{fields[1]}
			continue
		}
		frames = append(frames, fields[0])
	}
	flush()
	return out, sc.Err()
}

// parseSampleValue parses a pprof duration such as "10ms", "1.20s" or
// "250us" into seconds.
func parseSampleValue(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"mins", 60}, {"hrs", 3600}, {"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, err
			}
			return v * u.scale, nil
		}
	}
	return 0, fmt.Errorf("unknown unit in %q", s)
}

// cpuShares profiles by layer: each layer's share of all samples in the
// given CPU profiles.
func cpuShares(ctx context.Context, profiles []string) (map[string]float64, error) {
	cmd := exec.CommandContext(ctx, "go", append([]string{"tool", "pprof", "-traces"}, profiles...)...)
	text, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	secs, err := rollupTraces(string(text))
	if err != nil {
		return nil, err
	}
	total := 0.0
	for _, v := range secs {
		total += v
	}
	shares := map[string]float64{}
	for layer, v := range secs {
		if total > 0 {
			shares[layer] = v / total
		}
	}
	return shares, nil
}
