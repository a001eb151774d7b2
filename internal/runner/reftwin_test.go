package runner_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"

	"comfase/internal/config"
	"comfase/internal/core"
	"comfase/internal/obs"
	"comfase/internal/runner"
	"comfase/internal/trace"
)

// refTwinGrids are the grids of the reference twin: every attack family
// at 4 and 8 vehicles (the arch-twin config), a 16-vehicle CACC platoon
// under platoon-matrix's four families, none of which chains, and a
// paper delay slice whose trie chains and wrecks both fire.
var refTwinGrids = []struct {
	path   string
	chains bool // the production side must fork trie suffixes
}{
	{"../../scripts/arch-twin.json", true},
	{"testdata/reftwin/platoon16.json", false},
	{"testdata/reftwin/paper-delay.json", true},
}

// twinSide is one side of the twin: the grid's JSON-lines rows, every
// cell's golden log and every grid point's full log, each encoded with
// its float bits, and the side's metrics.
type twinSide struct {
	rows    []byte
	goldens [][]byte
	logs    [][]byte
	reg     *obs.Registry
}

// runTwinSide runs the grid's cells with every exact fast path on, or
// with all of them off (core.EngineConfig.Reference): once through the
// runner into a JSON sink, and then each grid point alone through
// RunExperimentWithLog on an engine of its cell.
func runTwinSide(t *testing.T, cells []runner.MatrixCell, reference bool) twinSide {
	t.Helper()
	side := twinSide{reg: obs.NewRegistry()}
	cells = append([]runner.MatrixCell(nil), cells...)
	for i := range cells {
		cells[i].Engine.Reference = reference
		cells[i].Engine.Metrics = side.reg
	}
	var rows bytes.Buffer
	if _, err := runner.RunMatrix(context.Background(), cells, runner.Options{Workers: 2}, runner.NewJSONSink(&rows)); err != nil {
		t.Fatalf("RunMatrix (reference %v): %v", reference, err)
	}
	side.rows = rows.Bytes()
	for _, cell := range cells {
		eng, err := core.NewEngine(cell.Engine)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		golden, _, err := eng.GoldenRun()
		if err != nil {
			t.Fatalf("GoldenRun (reference %v): %v", reference, err)
		}
		side.goldens = append(side.goldens, logBits(golden))
		for _, spec := range cell.Setup.Experiments() {
			_, full, err := eng.RunExperimentWithLog(spec)
			if err != nil {
				t.Fatalf("%v (reference %v): %v", spec, reference, err)
			}
			side.logs = append(side.logs, logBits(full))
		}
	}
	return side
}

// logBits encodes a full log's times and every sample's float bits.
func logBits(l *trace.FullLog) []byte {
	var b []byte
	for i := 0; i < l.Len(); i++ {
		b = binary.LittleEndian.AppendUint64(b, uint64(l.Time(i)))
		for v := 0; v < l.NumVehicles(); v++ {
			s := l.At(i, v)
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Pos))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Speed))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Accel))
		}
	}
	return b
}

// TestReferenceTwin is the one check of DESIGN.md §12's exactness rule
// for the exact fast paths as a set: the kernel's horizon, the medium's
// guard distance, lazy receptions, held carrier sense and batched
// fan-out, wreck elision and the checkpoint trie. Each grid runs with all
// of them on and with all of them off (core.EngineConfig.Reference): the
// JSON-lines rows, which carry every float at full precision, every
// golden log and every grid point's full log must be identical bit for
// bit. The production side must really take the fast paths its grid
// exercises: fewer kernel events, wrecks elided and trie suffixes forked,
// where the reference side has none.
func TestReferenceTwin(t *testing.T) {
	if raceEnabled {
		t.Skip("the twin runs in `make ref-twin`, without the race detector")
	}
	for _, g := range refTwinGrids {
		t.Run(filepath.Base(g.path), func(t *testing.T) {
			f, err := os.Open(g.path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			parsed, err := config.Parse(f)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			cells, _ := parsed.Grid()
			got, want := runTwinSide(t, cells, false), runTwinSide(t, cells, true)

			if !bytes.Equal(got.rows, want.rows) {
				t.Errorf("JSON-lines rows differ:\nproduction:\n%s\nreference:\n%s", got.rows, want.rows)
			}
			for i := range want.goldens {
				if !bytes.Equal(got.goldens[i], want.goldens[i]) {
					t.Errorf("cell %d (%s/%s): golden logs differ", i, cells[i].Scenario, cells[i].Attack)
				}
			}
			n := 0
			for _, cell := range cells {
				for _, spec := range cell.Setup.Experiments() {
					if !bytes.Equal(got.logs[n], want.logs[n]) {
						t.Errorf("%s/%s %v: full logs differ", cell.Scenario, cell.Attack, spec)
					}
					n++
				}
			}

			count := func(s twinSide, name string) uint64 { return s.reg.Counter(name).Load() }
			for _, name := range []string{"engine.wreck_elisions", "engine.trie_suffix_forks"} {
				if c := count(want, name); c != 0 {
					t.Errorf("reference side: %s = %d, want 0", name, c)
				}
			}
			if count(got, "engine.wreck_elisions") == 0 {
				t.Error("production side elided no wreck")
			}
			if g.chains && count(got, "engine.trie_suffix_forks") == 0 {
				t.Error("production side forked no trie suffix")
			}
			ge, we := count(got, "kernel.events_executed"), count(want, "kernel.events_executed")
			if ge >= we {
				t.Errorf("production side executed %d kernel events, reference %d: want fewer", ge, we)
			}
			t.Logf("%d rows; kernel events %d (reference %d); wreck elisions %d; trie suffix forks %d",
				bytes.Count(got.rows, []byte("\n")), ge, we,
				count(got, "engine.wreck_elisions"), count(got, "engine.trie_suffix_forks"))
		})
	}
}
