package runner

import (
	"math"
	"testing"

	"comfase/internal/core"
	"comfase/internal/sim/des"
)

// FuzzTrieGroupKey fuzzes the checkpoint trie's group-key derivation —
// grid expansion (with an arbitrary matrix-cell base), subset filtering,
// same-start grouping and per-value chain ordering — and checks the
// invariants every execution mode relies on:
//
//   - the chains of a group partition it exactly;
//   - every chain is one attack value (compared as float64 bit patterns,
//     so a NaN value must sit alone in its bucket);
//   - chain order is strictly ascending in (duration, expNr);
//   - a round-robin subset's chains are projections of the full grid's
//     chains: the surviving experiments keep their full-grid relative
//     order.
func FuzzTrieGroupKey(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(2), 0, uint8(2), uint8(3), []byte{1, 2, 3, 4})
	f.Add(uint8(1), uint8(1), uint8(1), 1000, uint8(1), uint8(1), []byte{0})
	f.Add(uint8(4), uint8(4), uint8(3), 7, uint8(3), uint8(4), []byte{9, 9, 9, 0, 255, 17})
	f.Fuzz(func(t *testing.T, nVals, nDurs, nStarts uint8, base int, shardIdx, shardCount uint8, raw []byte) {
		nv, nd, ns := int(nVals%4)+1, int(nDurs%4)+1, int(nStarts%4)+1
		if base < 0 {
			base = -base
		}
		base %= 1 << 20
		byteAt := func(i int) byte {
			if len(raw) == 0 {
				return 0
			}
			return raw[i%len(raw)]
		}
		setup := core.CampaignSetup{
			AttackName: "delay",
			Targets:    []string{"vehicle.2"},
			Base:       base,
		}
		for i := 0; i < nv; i++ {
			v := float64(byteAt(i)%5) / 10 // few distinct values -> collisions
			if byteAt(i) == 255 {
				v = math.NaN()
			}
			setup.Values = append(setup.Values, v)
		}
		for i := 0; i < nd; i++ {
			setup.Durations = append(setup.Durations, des.Time(byteAt(nv+i)%4)*500*des.Millisecond)
		}
		// Starts are strictly increasing, like every real grid: with
		// duplicate non-adjacent starts groupByStart would merge groups
		// differently for different subsets, and the projection
		// property below only holds per group.
		start := des.Second
		for i := 0; i < ns; i++ {
			start += des.Time(byteAt(nv+nd+i)%4+1) * 200 * des.Millisecond
			setup.Starts = append(setup.Starts, start)
		}
		specs := setup.Experiments()

		check := func(specs []core.ExperimentSpec, group []int) [][]int {
			chains := orderGroupChains(specs, group)
			seen := make(map[int]bool)
			for _, c := range chains {
				if len(c) == 0 {
					t.Fatal("empty chain bucket")
				}
				key := math.Float64bits(specs[c[0]].Value)
				if math.IsNaN(specs[c[0]].Value) && len(c) != 1 {
					t.Fatalf("NaN value chained across %d experiments", len(c))
				}
				for i, idx := range c {
					if seen[idx] {
						t.Fatalf("index %d appears in two chains", idx)
					}
					seen[idx] = true
					if !math.IsNaN(specs[idx].Value) && math.Float64bits(specs[idx].Value) != key {
						t.Fatalf("chain mixes values %v and %v", specs[c[0]].Value, specs[idx].Value)
					}
					if i > 0 {
						prev, cur := specs[c[i-1]], specs[idx]
						if cur.Duration < prev.Duration ||
							(cur.Duration == prev.Duration && cur.Nr <= prev.Nr) {
							t.Fatalf("chain not ascending in (duration, expNr): %v then %v", prev, cur)
						}
					}
				}
			}
			if len(seen) != len(group) {
				t.Fatalf("chains cover %d of %d group members", len(seen), len(group))
			}
			return chains
		}

		// Full grid: group by start, order each group, and record each
		// experiment's chain position keyed by expNr.
		all := make([]int, len(specs))
		for i := range all {
			all[i] = i
		}
		fullOrder := make(map[uint64][]int) // (start, value bits) -> Nr sequence
		chainKey := func(s core.ExperimentSpec) uint64 {
			return uint64(s.Start)*31 ^ math.Float64bits(s.Value)
		}
		for _, group := range groupByStart(specs, all) {
			for _, c := range check(specs, group) {
				k := chainKey(specs[c[0]])
				for _, idx := range c {
					fullOrder[k] = append(fullOrder[k], specs[idx].Nr)
				}
			}
		}

		// Round-robin subset (every count-th experiment, the holes a
		// resume leaves): its chains must be subsequences of the full
		// grid's chains.
		count := int(shardCount%8) + 1
		var sub []core.ExperimentSpec
		for _, s := range specs {
			if s.Nr%count == int(shardIdx)%count {
				sub = append(sub, s)
			}
		}
		todo := make([]int, len(sub))
		for i := range todo {
			todo[i] = i
		}
		for _, group := range groupByStart(sub, todo) {
			for _, c := range check(sub, group) {
				if math.IsNaN(sub[c[0]].Value) {
					continue // NaN never equals itself; no full-grid bucket to project from
				}
				full := fullOrder[chainKey(sub[c[0]])]
				j := 0
				for _, idx := range c {
					for j < len(full) && full[j] != sub[idx].Nr {
						j++
					}
					if j == len(full) {
						t.Fatalf("subset chain order %v is not a subsequence of full-grid order %v", c, full)
					}
					j++
				}
			}
		}
	})
}
