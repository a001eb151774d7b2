package analysis

import (
	"strings"
	"testing"

	"comfase/internal/classify"
	"comfase/internal/core"
	"comfase/internal/sim/des"
)

// cellExp stamps a sample experiment with matrix cell identity.
func cellExp(scenarioLabel, attack string, o classify.Outcome) core.ExperimentResult {
	r := exp(17*des.Second, 1, des.Second, o, "")
	r.Spec.Scenario = scenarioLabel
	r.Spec.Attack = attack
	return r
}

func matrixExperiments() []core.ExperimentResult {
	return []core.ExperimentResult{
		cellExp("paper", "delay", classify.Severe),
		cellExp("paper", "delay", classify.Benign),
		cellExp("paper", "dos", classify.Severe),
		cellExp("p8", "delay", classify.Negligible),
		cellExp("p8", "dos", classify.NonEffective),
	}
}

func TestCellOfAndString(t *testing.T) {
	e := cellExp("p8", "delay", classify.Severe)
	c := CellOf(e)
	if c.String() != "p8/delay" {
		t.Errorf("Cell.String = %q, want p8/delay", c.String())
	}
	// Outside a matrix the scenario label is empty and the cell reads as
	// the bare attack label (legacy reports unchanged).
	legacy := exp(17*des.Second, 1, des.Second, classify.Severe, "")
	if got := CellOf(legacy).String(); got != "delay" {
		t.Errorf("legacy cell = %q, want delay", got)
	}
}

func TestGroupCellsPreservesGridOrder(t *testing.T) {
	groups := GroupCells(matrixExperiments())
	want := []string{"paper/delay", "paper/dos", "p8/delay", "p8/dos"}
	if len(groups) != len(want) {
		t.Fatalf("got %d groups, want %d", len(groups), len(want))
	}
	for i, g := range groups {
		if g.Cell.String() != want[i] {
			t.Errorf("group %d = %s, want %s", i, g.Cell, want[i])
		}
	}
	if groups[0].Counts != (classify.Counts{Severe: 1, Benign: 1}) {
		t.Errorf("paper/delay counts = %+v", groups[0].Counts)
	}
	if len(groups[0].Experiments) != 2 {
		t.Errorf("paper/delay has %d experiments, want 2", len(groups[0].Experiments))
	}
}

func TestCellCounts(t *testing.T) {
	lc := CellCounts(matrixExperiments())
	if lc.Len() != 4 {
		t.Fatalf("Len = %d, want 4", lc.Len())
	}
	if got := lc.Get("paper/dos"); got != (classify.Counts{Severe: 1}) {
		t.Errorf("paper/dos = %+v", got)
	}
}

func TestWriteCellTable(t *testing.T) {
	var sb strings.Builder
	if err := WriteCellTable(&sb, GroupCells(matrixExperiments())); err != nil {
		t.Fatalf("WriteCellTable: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"cell", "severe", "paper/delay", "p8/dos"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // header + 4 cells
		t.Errorf("table has %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestCellFamiliesAndReport(t *testing.T) {
	fams := CellFamilies(GroupCells(matrixExperiments()))
	if len(fams) != 4 {
		t.Fatalf("got %d families, want 4", len(fams))
	}
	if fams[0].Cell.String() != "paper/delay" || fams[0].Counts.Total() != 2 {
		t.Errorf("family 0 = %s with %d experiments", fams[0].Cell, fams[0].Counts.Total())
	}
	var sb strings.Builder
	if err := WriteCellReport(&sb, fams[0]); err != nil {
		t.Fatalf("WriteCellReport: %v", err)
	}
	for _, want := range []string{"cell paper/delay", "Fig5-duration", "Fig6-pd-value", "Fig7-start-time", "collider attribution"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("report missing %q:\n%s", want, sb.String())
		}
	}
}

// TestMatrixCSVSchema pins the matrix schema: the legacy 10 columns
// with "scenario" spliced in second, and records that match the legacy
// encoding column-for-column.
func TestMatrixCSVSchema(t *testing.T) {
	h := MatrixCSVHeader()
	if len(h) != 11 || h[0] != "expNr" || h[1] != "scenario" || h[2] != "attack" {
		t.Fatalf("MatrixCSVHeader = %v", h)
	}
	e := cellExp("p8", "delay", classify.Severe)
	rec := MatrixCSVRecord(e)
	if len(rec) != 11 || rec[1] != "p8" {
		t.Fatalf("MatrixCSVRecord = %v", rec)
	}
	legacy := ExperimentCSVRecord(e)
	if rec[0] != legacy[0] {
		t.Errorf("expNr differs: %s vs %s", rec[0], legacy[0])
	}
	for i := 1; i < len(legacy); i++ {
		if rec[i+1] != legacy[i] {
			t.Errorf("column %d differs: %s vs %s", i, rec[i+1], legacy[i])
		}
	}
}

// TestAttackLabelInCSV: registry-only attacks carry their family name
// into the attack column; enum-backed specs keep the kind string.
func TestAttackLabelInCSV(t *testing.T) {
	named := cellExp("", "sybil", classify.Severe)
	if got := ExperimentCSVRecord(named)[1]; got != "sybil" {
		t.Errorf("named attack column = %q, want sybil", got)
	}
	legacy := exp(17*des.Second, 1, des.Second, classify.Severe, "")
	if got := ExperimentCSVRecord(legacy)[1]; got != "delay" {
		t.Errorf("legacy attack column = %q, want delay", got)
	}
}
