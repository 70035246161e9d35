package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite SCORECARD.json from the current experiment results")

// scorecardFile holds every experiment's headline at the commit that wrote
// it: a change that moves what the engine detects shows up as a diff of
// this file, row by row.
const scorecardFile = "SCORECARD.json"

// num renders a float with six fixed decimals, so the scorecard's bytes do
// not depend on float formatting and a last-bit rounding difference does
// not register as a change of headline.
type num float64

func (n num) MarshalJSON() ([]byte, error) {
	x := float64(n)
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return []byte(strconv.Quote(strconv.FormatFloat(x, 'f', -1, 64))), nil
	}
	return []byte(strconv.FormatFloat(x, 'f', 6, 64)), nil
}

// dur renders a duration in Go's own notation ("2h0m0s"); -1ns marks "never".
type dur time.Duration

func (d dur) MarshalJSON() ([]byte, error) {
	return []byte(strconv.Quote(time.Duration(d).String())), nil
}

// The scorecard's shape: struct fields marshal in declaration order and map
// keys sorted, so the file is byte-identical across runs. Throughputs (P1,
// E1's MB/s) are wall-clock values and stay out.
type scorecard struct {
	F1  scF1    `json:"F1"`
	SC1 scSC1   `json:"SC1"`
	SC2 scSC2   `json:"SC2"`
	SC3 scSC3   `json:"SC3"`
	B1  scB1    `json:"B1"`
	A1  []scRow `json:"A1"`
	A2  []scRow `json:"A2"`
	E1  scE1    `json:"E1"`
}

type scF1 struct {
	ShiftDetected bool `json:"shift_detected"`
	// Ratio is the pair's max score during the shift over its max during
	// the solo bursts.
	Ratio num `json:"ratio"`
	Lag   dur `json:"lag"`
}

type scSC1 struct {
	Events        []scEvent `json:"events"`
	MeanPrecision num       `json:"mean_precision_at_10"`
}

type scEvent struct {
	Pair     string `json:"pair"`
	Detected bool   `json:"detected"`
	Lag      dur    `json:"lag"`
}

type scSC2 struct {
	Reached     bool     `json:"reached"`
	TimeToTop10 dur      `json:"time_to_top10"`
	BestRank    int      `json:"best_rank"`
	Trajectory  []scTick `json:"trajectory"`
}

type scTick struct {
	At    string `json:"at"`
	Rank  int    `json:"rank"`
	Score num    `json:"score"`
}

type scSC3 struct {
	Lists map[string][]string `json:"lists"`
}

type scB1 struct {
	CorrelationShift scB1Row `json:"correlation_shift"`
	RateBurst        scB1Row `json:"rate_burst"`
}

type scB1Row struct {
	EnBlogueDetected bool `json:"enblogue_detected"`
	EnBlogueLag      dur  `json:"enblogue_lag"`
	BaselineDetected bool `json:"baseline_detected"`
	BaselineLag      dur  `json:"baseline_lag"`
}

type scRow struct {
	Dimension string `json:"dimension"`
	Value     string `json:"value"`
	Detected  int    `json:"detected"`
	Events    int    `json:"events"`
	MeanLag   dur    `json:"mean_lag"`
	Precision num    `json:"precision_at_10"`
}

type scE1 struct {
	Precision         num `json:"precision"`
	Recall            num `json:"recall"`
	FilteredPrecision num `json:"filtered_precision"`
	FilteredRecall    num `json:"filtered_recall"`
}

// buildScorecard runs every experiment but P1 and collects its headline.
func buildScorecard(t *testing.T) scorecard {
	t.Helper()
	var sc scorecard
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	f1, err := RunF1(io.Discard)
	check(err)
	sc.F1 = scF1{
		ShiftDetected: f1.ShiftDetected,
		Ratio:         num(f1.PairScoreDuringShift / f1.PairScoreDuringSoloBurst),
		Lag:           dur(f1.ShiftDetectedAt.Sub(f1.ShiftStart)),
	}

	sc1, err := RunSC1(io.Discard)
	check(err)
	for _, l := range sc1.Latencies {
		sc.SC1.Events = append(sc.SC1.Events, scEvent{Pair: l.ID, Detected: l.Detected, Lag: dur(l.Delay)})
	}
	sc.SC1.MeanPrecision = num(sc1.MeanPrecision)

	sc2, err := RunSC2(io.Discard)
	check(err)
	sc.SC2 = scSC2{Reached: sc2.Reached, TimeToTop10: dur(sc2.TimeToTop10), BestRank: sc2.BestRank}
	for _, p := range sc2.Trajectory {
		sc.SC2.Trajectory = append(sc.SC2.Trajectory, scTick{At: p.At.UTC().Format(time.RFC3339), Rank: p.Rank, Score: num(p.Score)})
	}

	sc3, err := RunSC3(io.Discard)
	check(err)
	sc.SC3.Lists = sc3.Lists

	b1, err := RunB1(io.Discard)
	check(err)
	b1Row := func(r B1Row) scB1Row {
		return scB1Row{r.EnBlogueDetected, dur(r.EnBlogueLatency), r.BaselineDetected, dur(r.BaselineLatency)}
	}
	sc.B1 = scB1{CorrelationShift: b1Row(b1.CorrelationShift), RateBurst: b1Row(b1.RateBurst)}

	a1, err := RunA1(io.Discard)
	check(err)
	for _, r := range a1.Rows {
		sc.A1 = append(sc.A1, scRow{r.Dimension, r.Value, r.Detected, r.Events, dur(r.MeanDelay), num(r.Precision)})
	}
	a2, err := RunA2(io.Discard)
	check(err)
	for _, r := range a2.Rows {
		sc.A2 = append(sc.A2, scRow{r.Dimension, r.Value, r.Detected, r.Events, dur(r.MeanDelay), num(r.Precision)})
	}

	e1, err := RunE1(io.Discard)
	check(err)
	sc.E1 = scE1{num(e1.Precision), num(e1.Recall), num(e1.FilteredPrecision), num(e1.FilteredRecall)}
	return sc
}

// TestScorecard diffs every experiment's headline against SCORECARD.json
// byte for byte. A change that moves a headline must regenerate the file
// (go test ./internal/experiments/ -run TestScorecard -update) and account
// for every changed row.
func TestScorecard(t *testing.T) {
	if testing.Short() {
		t.Skip("scorecard runs the A1/A2 sweeps")
	}
	got, err := json.MarshalIndent(buildScorecard(t), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *update {
		if err := os.WriteFile(scorecardFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(scorecardFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n got  %s\n want %s", scorecardFile, i+1, g, w)
		}
	}
}
