package main

import (
	"context"
	"fmt"
	"math"
	"os"
)

// runAA measures the benchmark against itself: the end-to-end suite
// runs 2K times, alternately for set A and set B (every run on a seed
// of its own, as the driver's runs are), and each metric of each
// workload is compared between the sets by the rule a real A/B would
// use. A pair whose within-set quartile spread exceeds the metric's
// bound is reported as unresolved, not as equal.
func runAA(ctx context.Context, cfg config, ws []*workload, seed int64, k int) error {
	if k < 2 {
		return fmt.Errorf("-aa %d: quartiles need at least 2 runs per set", k)
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for r := 0; r < k; r++ {
		for side := 0; side < 2; side++ {
			// Alternate which set goes first so drift over the session
			// does not favour one of them.
			set := (side + r) % 2
			runSeed := seed + int64(2*r+set)
			for _, w := range ws {
				fmt.Fprintf(os.Stderr, "aa: round %d/%d set %c %s seed %d\n", r+1, k, 'A'+set, w.name, runSeed)
				res, _, err := runEndToEnd(ctx, cfg, w, runSeed)
				if err != nil {
					return fmt.Errorf("%s: %w", w.name, err)
				}
				if !res.Correct {
					return fmt.Errorf("%s: incorrect run (seed %d)", w.name, runSeed)
				}
				for name, m := range res.Metrics {
					sets[set][key{w.name, name}] = append(sets[set][key{w.name, name}], m.Value)
				}
			}
		}
	}

	fmt.Printf("%-12s %-30s %12s %12s %8s %8s %7s  %s\n",
		"workload", "metric", "median A", "median B", "B worse", "spread", "bound", "verdict")
	unresolved, different := 0, 0
	for _, w := range ws {
		for _, spec := range endToEnd {
			a, b := sets[0][key{w.name, spec.name}], sets[1][key{w.name, spec.name}]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if spec.better == "higher" {
				worse = -worse
			}
			spread := math.Max(relSpread(a), relSpread(b))
			verdict := "same"
			switch {
			case spread > spec.bound:
				verdict = "unresolved"
				unresolved++
			case worse > spec.bound:
				verdict = "DIFFERENT"
				different++
			}
			fmt.Printf("%-12s %-30s %12.4f %12.4f %7.1f%% %7.1f%% %6.0f%%  %s\n",
				w.name, spec.name, ma, mb, 100*worse, 100*spread, 100*spec.bound, verdict)
		}
	}
	fmt.Printf("%d unresolved, %d different, of %d pairs\n", unresolved, different, len(ws)*len(endToEnd))
	if different > 0 {
		return fmt.Errorf("two sets of runs of one commit differ by more than the bound")
	}
	return nil
}

// relSpread is the distance between the first and third quartile as a
// share of the median.
func relSpread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}
