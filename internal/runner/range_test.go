package runner

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"comfase/internal/core"
)

func TestRangeValidateContains(t *testing.T) {
	cases := []struct {
		name     string
		r        Range
		valid    bool
		contains map[int]bool
	}{
		{
			name:     "disabled zero range contains everything",
			r:        Range{},
			valid:    true,
			contains: map[int]bool{0: true, 7: true, 1 << 20: true},
		},
		{
			name:     "half-open interval",
			r:        Range{From: 3, To: 6},
			valid:    true,
			contains: map[int]bool{2: false, 3: true, 5: true, 6: false},
		},
		{
			name:     "prefix from zero",
			r:        Range{From: 0, To: 2},
			valid:    true,
			contains: map[int]bool{0: true, 1: true, 2: false},
		},
		{name: "negative from", r: Range{From: -1, To: 4}, valid: false},
		{name: "inverted", r: Range{From: 5, To: 2}, valid: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.r.Validate()
			if tc.valid && err != nil {
				t.Fatalf("Validate(%v) = %v", tc.r, err)
			}
			if !tc.valid {
				if err == nil {
					t.Fatalf("Validate(%v) accepted", tc.r)
				}
				return
			}
			for nr, want := range tc.contains {
				if got := tc.r.Contains(nr); got != want {
					t.Errorf("%v.Contains(%d) = %v, want %v", tc.r, nr, got, want)
				}
			}
		})
	}
	if _, err := New(chaosEngine(t, 0), Options{Range: Range{From: 2, To: 1}}); err == nil {
		t.Error("runner accepted an inverted range")
	}
}

// TestRangeSplitEquivalence is the fabric leasing invariant at the
// runner layer: executing a grid as range slices and concatenating the
// slice outputs must reproduce the unrestricted run byte for byte.
func TestRangeSplitEquivalence(t *testing.T) {
	setup := chaosGrid()
	setup.Values = setup.Values[:2]
	setup.Starts = setup.Starts[:3]
	setup.Durations = setup.Durations[:2] // 12 experiments
	total := setup.NumExperiments()

	runRange := func(r Range) string {
		t.Helper()
		var buf bytes.Buffer
		run, err := New(chaosEngine(t, 0), Options{Workers: 2, Range: r}, NewCSVSink(&buf))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if _, err := run.Run(context.Background(), setup); err != nil {
			t.Fatalf("Run(%v): %v", r, err)
		}
		return buf.String()
	}

	full := runRange(Range{})
	var spliced strings.Builder
	header := full[:strings.IndexByte(full, '\n')+1]
	spliced.WriteString(header)
	for from := 0; from < total; from += 5 {
		to := from + 5
		if to > total {
			to = total
		}
		part := runRange(Range{From: from, To: to})
		spliced.WriteString(strings.TrimPrefix(part, header))
	}
	if spliced.String() != full {
		t.Errorf("range-spliced CSV differs from the full run:\nspliced:\n%s\nfull:\n%s", spliced.String(), full)
	}
}

// TestSelectGridBuildsOnlyTheRange: a 16-point lease of the 11,250-point
// paper delay grid builds its 16 specs, not the whole grid, and they are
// the grid's points with those expNrs.
func TestSelectGridBuildsOnlyTheRange(t *testing.T) {
	setup := core.PaperDelayCampaign()
	if n := setup.NumExperiments(); n != 11250 {
		t.Fatalf("paper delay grid has %d points, want 11250", n)
	}
	cells := []*cellRun{{setup: setup}}
	o := Options{Range: Range{From: 5000, To: 5016}}
	specs := o.selectGrid(cells)
	all := setup.Experiments()
	if len(specs) != 16 || cells[0].lo != 0 || cells[0].hi != 16 || !reflect.DeepEqual(specs, all[5000:5016]) {
		t.Fatalf("selected %d specs, slots [%d,%d); want grid points 5000..5015", len(specs), cells[0].lo, cells[0].hi)
	}
	// Five appends grow the result to 16; the old selection also built
	// all 11,250 specs, about 1.5 MB, per lease.
	if allocs := testing.AllocsPerRun(20, func() { o.selectGrid(cells) }); allocs > 5 {
		t.Errorf("%v allocations per selection, want at most 5", allocs)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		o.selectGrid(cells)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 16<<10 {
		t.Errorf("%d bytes allocated per selection, want at most 16 KiB", per)
	}
}
