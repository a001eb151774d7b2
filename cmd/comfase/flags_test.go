package main

import (
	"flag"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"comfase/internal/config"
	"comfase/internal/runner/pool"
	"comfase/internal/sim/des"
)

// precedenceCase pins one table flag: the config sets the bound setting to
// want at cfg, and the flag at flagArg sets it to flagWant.
type precedenceCase struct {
	flag     string
	cfg      string // runtime/fabric section entries
	section  string
	want     any
	flagArg  string
	flagWant any
}

// effective parses args against table bound to scratch settings, as the
// subcommands do, then applies them over the config cfg and returns the
// effective value get reads.
func effective(t *testing.T, table func(*flag.FlagSet, *config.Parsed), cfg string, args []string, get func(*config.Parsed) any) any {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	table(fs, &config.Parsed{})
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	parsed, err := config.Parse(strings.NewReader(cfg))
	if err != nil {
		t.Fatalf("config %s: %v", cfg, err)
	}
	if err := applyFlags(fs, table, parsed); err != nil {
		t.Fatalf("applyFlags %v: %v", args, err)
	}
	return get(parsed)
}

// checkPrecedence runs every case of one subcommand's table: absent flag,
// config value; given flag, flag value (zero values included). It also
// fails if the table binds a flag no case covers.
func checkPrecedence(t *testing.T, table func(*flag.FlagSet, *config.Parsed), get func(*config.Parsed, string) any, cases []precedenceCase) {
	t.Helper()
	const campaign = `"campaign": {"attack": "delay", "valuesS": {"values": [1]}, "startTimesS": {"values": [17]}, "durationsS": {"values": [1]}}`
	covered := map[string]bool{}
	for _, c := range cases {
		covered[c.flag] = true
		cfg := fmt.Sprintf(`{%s, %q: {%s}}`, campaign, c.section, c.cfg)
		read := func(p *config.Parsed) any { return get(p, c.flag) }
		if got := effective(t, table, cfg, nil, read); got != c.want {
			t.Errorf("-%s absent, config %s: effective %v, want %v", c.flag, c.cfg, got, c.want)
		}
		if got := effective(t, table, cfg, []string{c.flagArg}, read); got != c.flagWant {
			t.Errorf("%s over config %s: effective %v, want %v", c.flagArg, c.cfg, got, c.flagWant)
		}
	}
	var unbound []string
	fs := flag.NewFlagSet("table", flag.ContinueOnError)
	table(fs, &config.Parsed{})
	fs.VisitAll(func(f *flag.Flag) {
		if !covered[f.Name] {
			unbound = append(unbound, f.Name)
		}
	})
	sort.Strings(unbound)
	if len(unbound) > 0 {
		t.Errorf("table flags without a precedence case: %v", unbound)
	}
}

// TestCampaignFlagPrecedence: for every flag campaign's table binds, an
// absent flag leaves the config's value and an explicit one wins, zero
// values included. Engine knobs are read where they take effect: on the
// cells' engines.
func TestCampaignFlagPrecedence(t *testing.T) {
	get := func(p *config.Parsed, name string) any {
		rt := p.Runtime
		cells, _ := p.Grid()
		ec := cells[0].Engine
		return map[string]any{
			"workers": rt.Workers, "results": rt.ResultsFile,
			"retries": rt.Retries, "max-failures": rt.MaxFailures, "experiment-timeout": rt.ExperimentTimeout,
			"event-budget": ec.EventBudget, "invariants": ec.Invariants, "early-exit": ec.EarlyExit,
			"early-exit-hold": ec.EarlyExitHold, "quarantine": rt.QuarantineFile, "heartbeat": rt.HeartbeatFile,
			"heartbeat-interval": rt.HeartbeatInterval, "metrics-addr": rt.MetricsAddr,
		}[name]
	}
	checkPrecedence(t, campaignFlags, get, []precedenceCase{
		{"workers", `"workers": 3`, "runtime", 3, "-workers=0", 0},
		{"results", `"resultsFile": "a.csv"`, "runtime", "a.csv", "-results=", ""},
		{"retries", `"retries": 2`, "runtime", 2, "-retries=0", 0},
		{"max-failures", `"maxFailures": 5`, "runtime", 5, "-max-failures=0", 0},
		{"experiment-timeout", `"experimentTimeoutS": 30`, "runtime", 30 * time.Second, "-experiment-timeout=0", time.Duration(0)},
		{"event-budget", `"eventBudget": 500000`, "runtime", uint64(500000), "-event-budget=0", uint64(0)},
		{"invariants", `"invariants": true`, "runtime", true, "-invariants=false", false},
		{"early-exit", `"earlyExit": true`, "runtime", true, "-early-exit=false", false},
		{"early-exit-hold", `"earlyExitHoldS": 2`, "runtime", 2 * des.Second, "-early-exit-hold=0s", des.Time(0)},
		{"quarantine", `"quarantineFile": "q.jsonl"`, "runtime", "q.jsonl", "-quarantine=", ""},
		{"heartbeat", `"heartbeatFile": "hb.json"`, "runtime", "hb.json", "-heartbeat=", ""},
		{"heartbeat-interval", `"heartbeatIntervalS": 2`, "runtime", 2 * time.Second, "-heartbeat-interval=0", time.Duration(0)},
		{"metrics-addr", `"metricsAddr": "127.0.0.1:0"`, "runtime", "127.0.0.1:0", "-metrics-addr=", ""},
	})
	// The config's workers 0 is the sequential paper setup: one worker.
	// The flag's 0 is all cores: it reaches the runner, which reads it as
	// GOMAXPROCS.
	const noWorkers = `{"campaign": {"valuesS": {"values": [1]}, "startTimesS": {"values": [17]}, "durationsS": {"values": [1]}}}`
	workers := func(p *config.Parsed) any { return p.Runtime.Workers }
	if one := effective(t, campaignFlags, noWorkers, nil, workers); one != 1 {
		t.Errorf("config without workers and no -workers: %v workers, want 1", one)
	}
	all := effective(t, campaignFlags, noWorkers, []string{"-workers=0"}, workers).(int)
	if got := pool.Workers(all, 1<<20); got != runtime.GOMAXPROCS(0) {
		t.Errorf("-workers 0 runs %d workers, want all %d cores", got, runtime.GOMAXPROCS(0))
	}
}

// TestServeFlagPrecedence is TestCampaignFlagPrecedence for serve's table.
func TestServeFlagPrecedence(t *testing.T) {
	get := func(p *config.Parsed, name string) any {
		fb := p.Fabric
		return map[string]any{
			"addr": fb.Addr, "lease-size": fb.LeaseSize, "lease-ttl": fb.LeaseTTL,
			"max-failures": p.Runtime.MaxFailures,
		}[name]
	}
	checkPrecedence(t, serveFlags, get, []precedenceCase{
		{"addr", `"addr": "127.0.0.1:7440"`, "fabric", "127.0.0.1:7440", "-addr=", ""},
		{"lease-size", `"leaseSize": 8`, "fabric", 8, "-lease-size=0", 0},
		{"lease-ttl", `"leaseTTLS": 3`, "fabric", 3 * time.Second, "-lease-ttl=0", time.Duration(0)},
		{"max-failures", `"maxFailures": 5`, "runtime", 5, "-max-failures=0", 0},
	})
	// serve has one mode: the multi-campaign queue's flags are gone.
	for _, arg := range []string{"-dir=svc", "-fairness-cap=2"} {
		fs := flag.NewFlagSet("serve", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		serveFlags(fs, &config.Parsed{})
		if err := fs.Parse([]string{arg}); err == nil {
			t.Errorf("serve %s parsed", arg)
		}
	}
}
