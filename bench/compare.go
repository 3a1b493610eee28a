package main

import (
	"fmt"
	"io"
	"path/filepath"
	"text/tabwriter"
)

// verdict classifies set B against set A for one metric of one workload.
//
//	regressed   B's median is worse than A's by more than the bound
//	improved    B's median is better by more than A's own quartile distance
//	unchanged   neither, and the runs repeat within the bound
//	unresolved  the run-to-run spread exceeds the bound, so the metric cannot
//	            show a change of the size the bound is about; only "every run
//	            of B beats (or loses to) every run of A" still decides
func verdict(a, b []float64, better string, bound float64) (string, float64, float64) {
	aq1, amed, aq3 := quartiles(a)
	bq1, bmed, bq3 := quartiles(b)
	if amed == 0 {
		return "unresolved", 0, 0
	}
	sign := 1.0 // worsening is an increase
	if better == "higher" {
		sign = -1
	}
	worse := sign * (bmed - amed) / amed
	spread := max(aq3-aq1, bq3-bq1) / amed
	allBetter, allWorse := true, true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
			if sign*(y-x) <= 0 {
				allWorse = false
			}
		}
	}
	switch {
	case spread > bound && allBetter:
		return "improved", worse, spread
	case spread > bound && allWorse:
		return "regressed", worse, spread
	case spread > bound:
		return "unresolved", worse, spread
	case worse > bound:
		return "regressed", worse, spread
	case -worse > (aq3-aq1)/amed && worse < 0:
		return "improved", worse, spread
	}
	return "unchanged", worse, spread
}

// loadSet reads every untraced result of a directory, grouped by workload
// and metric; runs marked noisy or incorrect are counted under those names.
func loadSet(dir string) (map[string]map[string][]float64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "result-*-t0-*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no untraced results (result-*-t0-*.json) in %s", dir)
	}
	set := map[string]map[string][]float64{}
	for _, p := range paths {
		r, err := loadReport(p)
		if err != nil {
			return nil, err
		}
		if set[r.Workload] == nil {
			set[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			set[r.Workload][name] = append(set[r.Workload][name], m.Value)
		}
		for flag, on := range map[string]bool{"noisy": r.Noisy, "incorrect": !r.Correct} {
			if on {
				set[r.Workload][flag] = append(set[r.Workload][flag], 1)
			}
		}
	}
	return set, nil
}

// compareCmd prints, for every workload and end-to-end metric, both sets'
// medians and quartiles, B over A with its base, the bound and the verdict.
// It is the tool for "two sets of runs of one commit agree" and for paired
// parent/change runs. It exits 1 when any row regressed.
func compareCmd(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare <dirA> <dirB>")
		return 2
	}
	a, err := loadSet(args[0])
	if err == nil {
		var b map[string]map[string][]float64
		if b, err = loadSet(args[1]); err == nil {
			return compareSets(a, b, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench compare:", err)
	return 1
}

func compareSets(a, b map[string]map[string][]float64, stdout io.Writer) int {
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3] n\tB median [q1, q3] n\tB/A (base)\tworse by\tspread\tbound\tverdict")
	code := 0
	for _, w := range workloads {
		for _, m := range endToEnd {
			av, bv := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			aq1, amed, aq3 := quartiles(av)
			bq1, bmed, bq3 := quartiles(bv)
			v, worse, spread := verdict(av, bv, m.Better, m.Bound)
			if v == "regressed" {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g [%.6g, %.6g] %d\t%.6g [%.6g, %.6g] %d\t%.4f (%.6g %s)\t%+.2f%%\t%.2f%%\t%.1f%%\t%s\n",
				w.Name, m.Name, amed, aq1, aq3, len(av), bmed, bq1, bq3, len(bv),
				ratio(bmed, amed), amed, m.Unit, 100*worse, 100*spread, 100*m.Bound, v)
		}
	}
	tw.Flush()
	for _, w := range workloads {
		fmt.Fprintf(stdout, "%s: A %d noisy, %d incorrect; B %d noisy, %d incorrect\n", w.Name,
			len(a[w.Name]["noisy"]), len(a[w.Name]["incorrect"]), len(b[w.Name]["noisy"]), len(b[w.Name]["incorrect"]))
		if len(a[w.Name]["incorrect"])+len(b[w.Name]["incorrect"]) > 0 {
			code = 1
		}
	}
	return code
}
