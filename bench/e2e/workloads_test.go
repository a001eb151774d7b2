package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"comfase/internal/config"
)

// gridSize is the number of experiments a config describes.
func gridSize(t *testing.T, cfg []byte) int {
	t.Helper()
	parsed, err := config.Parse(bytes.NewReader(cfg))
	if err != nil {
		t.Fatalf("config does not parse: %v\n%s", err, cfg)
	}
	if len(parsed.Cells) == 0 {
		return parsed.Campaign.NumExperiments()
	}
	n := 0
	for _, c := range parsed.Cells {
		n += c.Setup.NumExperiments()
	}
	return n
}

func TestConfigsAreDeterministicWithFixedGrids(t *testing.T) {
	for _, w := range workloads {
		for seed := uint64(1); seed <= 20; seed++ {
			cfg := w.config(seed)
			if !bytes.Equal(cfg, w.config(seed)) {
				t.Fatalf("%s: seed %d gives two different configs", w.name, seed)
			}
			if n := gridSize(t, cfg); n != w.grid {
				t.Errorf("%s seed %d: grid of %d experiments, want %d", w.name, seed, n, w.grid)
			}
		}
	}
	if bytes.Equal(platoonMatrixConfig(1), platoonMatrixConfig(2)) {
		t.Error("platoon-matrix: seeds 1 and 2 draw the same attack values")
	}
}

func TestDrawnValuesStayInRange(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		var f struct {
			Matrix struct {
				Attacks []struct {
					Name    string `json:"name"`
					ValuesS struct {
						Values []float64 `json:"values"`
					} `json:"valuesS"`
				} `json:"attacks"`
			} `json:"matrix"`
		}
		if err := json.Unmarshal(platoonMatrixConfig(seed), &f); err != nil {
			t.Fatal(err)
		}
		ranges := map[string][2]float64{"packet-loss": {0.2, 0.8}, "corruption": {0.5, 2.0}, "jamming": {5, 20}, "dos": {60, 60}}
		for _, a := range f.Matrix.Attacks {
			r := ranges[a.Name]
			vs := a.ValuesS.Values
			for i, v := range vs {
				if v < r[0] || v > r[1] || (i > 0 && v <= vs[i-1]) {
					t.Fatalf("seed %d %s: values %v not ascending within %v", seed, a.Name, vs, r)
				}
			}
		}
	}
}

func TestCheckRows(t *testing.T) {
	header := "expNr,attack,value\n"
	for _, tc := range []struct {
		name   string
		csv    string
		failed int
	}{
		{"complete", header + "0,a,1\n1,a,1\n2,a,1\n", 0},
		{"missing last", header + "0,a,1\n1,a,1\n", 1},
		{"gap", header + "0,a,1\n2,a,1\n", 2},
		{"duplicate", header + "0,a,1\n0,a,1\n1,a,1\n", 2},
		{"extra row", header + "0,a,1\n1,a,1\n2,a,1\n3,a,1\n", 3},
		{"no header", "0,a,1\n1,a,1\n2,a,1\n", 3},
		{"empty", "", 3},
	} {
		if got := checkRows([]byte(tc.csv), 3); got != tc.failed {
			t.Errorf("%s: %d failed, want %d", tc.name, got, tc.failed)
		}
	}
}

func TestVerifyPinsDigests(t *testing.T) {
	w := workload{name: "w", digest: "2c26b46b68ffc68ff99b453c1d30413413422d706483bfa0f98a5e886266e7ae"} // sha256("foo")
	ref := ""
	if err := verify(w, pinSeed, []byte("foo"), &ref); err != nil {
		t.Errorf("pinned bytes rejected: %v", err)
	}
	if err := verify(w, pinSeed, []byte("bar"), &ref); err == nil {
		t.Error("bytes differing from the run's first iteration accepted")
	}
	ref = ""
	if err := verify(w, pinSeed+1, []byte("bar"), &ref); err != nil {
		t.Errorf("unpinned seed rejected: %v", err)
	}
	w.allSeeds = true
	ref = ""
	if err := verify(w, pinSeed+1, []byte("bar"), &ref); err == nil {
		t.Error("a digest pinned for all seeds was not checked")
	}
}
