package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// A set is a file of result lines, as written by --append: several
// untraced runs per workload of one commit.

// readSet loads the untraced results of a set, grouped by workload.
func readSet(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]result)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// values extracts one metric from a workload's runs.
func values(runs []result, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// Verdicts of one workload × metric comparison.
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
)

// judge compares set B against set A on one metric. The spread is the
// wider of the two sets' inter-quartile ranges as a share of their median;
// when it exceeds the bound the runs cannot tell a regression of that size
// from noise, and the honest answer is unresolved — never "same". A metric
// one set has no value for is worse: a run whose output checks fail prints
// nothing, so a workload that broke must not drop out of the comparison.
func judge(d metricDef, a, b []float64) (medA, medB, spr float64, verdict string) {
	medA, medB = median(a), median(b)
	spr = max(spread(a), spread(b))
	if len(a) == 0 || len(b) == 0 {
		return medA, medB, spr, verdictWorse
	}
	if medA == 0 {
		return medA, medB, spr, verdictUnresolved
	}
	change := (medB - medA) / medA // positive: B is larger
	if d.Better == "higher" {
		change = -change // positive: B is worse
	}
	switch {
	case spr > d.Bound && d.Name != "setup_s":
		// Set-up time is held to its median only, as the pipeline holds it:
		// one set-up per run leaves its spread what the machine makes it.
		verdict = verdictUnresolved
	case change > d.Bound:
		verdict = verdictWorse
	case change < -d.Bound:
		verdict = verdictBetter
	default:
		verdict = verdictSame
	}
	return medA, medB, spr, verdict
}

// addHashes folds a workload's runs into the digests seen per seed.
func addHashes(bySeed map[int64]map[string]bool, runs []result) {
	for _, r := range runs {
		if bySeed[r.Seed] == nil {
			bySeed[r.Seed] = make(map[string]bool)
		}
		bySeed[r.Seed][fmt.Sprint(r.Info["hash"])] = true
	}
}

// compareMain implements `bench compare A B`: per workload × end-to-end
// metric both medians, the spread, the bound and a verdict. It exits
// non-zero when any verdict is worse, or when two runs of one seed
// published different rankings.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.jsonl B.jsonl")
		return 2
	}
	a, err := readSet(args[0])
	if err == nil {
		var b map[string][]result
		if b, err = readSet(args[1]); err == nil {
			return compareSets(a, b)
		}
	}
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	return 2
}

func compareSets(a, b map[string][]result) int {
	// Every workload of either set: one that is missing from the other has
	// no values there, which judge calls worse.
	var names []string
	for i := range workloads {
		if name := workloads[i].Name; len(a[name])+len(b[name]) > 0 {
			names = append(names, name)
		}
	}
	bad := false
	fmt.Printf("%-12s %-18s %14s %14s %8s %6s  %s\n", "workload", "metric", "median A", "median B", "spread", "bound", "verdict")
	for _, name := range names {
		for _, d := range endToEnd {
			medA, medB, spr, verdict := judge(d, values(a[name], d.Name), values(b[name], d.Name))
			fmt.Printf("%-12s %-18s %14.4f %14.4f %7.1f%% %5.0f%%  %s\n", name, d.Name, medA, medB, 100*spr, 100*d.Bound, verdict)
			bad = bad || verdict == verdictWorse
		}
		// Every run of one seed, in either set, must have published the
		// same rankings.
		bySeed := make(map[int64]map[string]bool)
		addHashes(bySeed, a[name])
		addHashes(bySeed, b[name])
		verdict := "identical"
		for _, digests := range bySeed {
			if len(digests) > 1 {
				verdict, bad = "DIFFER", true
			}
		}
		fmt.Printf("%-12s %-18s %s\n", name, "ranking hashes", verdict)
	}
	if bad {
		return 1
	}
	return 0
}
