// Package experiments regenerates every evaluation artifact of the paper:
// Figure 1 (the correlation-shift illustration), the three demonstration
// show cases of Section 5 as quantitative experiments, the implicit
// comparison against burst-based trend detection, plus engine-throughput
// and ablation studies. Each experiment prints a table or series to a
// writer and returns a structured result that the test suite asserts on.
//
// See DESIGN.md §4 for the experiment index.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"

	"enblogue/internal/core"
	"enblogue/internal/metrics"
	"enblogue/internal/pairs"
	"enblogue/internal/source"
)

// Experiment is one reproducible evaluation artifact.
type Experiment struct {
	ID   string
	Name string
	Run  func(w io.Writer) error
}

// All lists every experiment in paper order. cmd/experiments iterates this.
var All = []Experiment{
	{"F1", "Figure 1: shift in tag-pair correlation vs solo burst", runF1},
	{"SC1", "Show case 1: revisiting historic events (archive replay)", runSC1},
	{"SC2", "Show case 2: live data — SIGMOD/Athens time lapse", runSC2},
	{"SC3", "Show case 3: personalization", runSC3},
	{"B1", "Baseline: enBlogue vs TwitterMonitor-style burst detection", runB1},
	{"P1", "Performance: engine throughput and plan sharing", runP1},
	{"A1", "Ablation: measures, predictors, half-life", runA1},
	{"A2", "Sensitivity: seed count, significance floor, tick period", runA2},
	{"E1", "Entity tagging: accuracy and throughput", runE1},
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// tickLog collects every ranking an engine emits.
type tickLog struct {
	rankings []core.Ranking
}

// runEngine feeds docs through a fresh engine with cfg and returns the tick
// log, collected by a sink on the engine's dispatcher: it sees every tick,
// and Flush returns only after the sink has logged the last one.
func runEngine(cfg core.Config, docs []source.Document) *tickLog {
	log := &tickLog{}
	e := core.New(cfg)
	defer e.Close()
	e.Subscribe(context.Background(), core.SubSink(func(n *core.Notification) {
		log.rankings = append(log.rankings, n.Ranking())
	}))
	for i := range docs {
		e.Consume(docs[i].Item())
	}
	e.Flush()
	return log
}

// firstTopK returns when pair first appeared within the top k of a ranking.
func (l *tickLog) firstTopK(p pairs.Key, k int) (time.Time, bool) {
	for _, r := range l.rankings {
		for i, t := range r.Topics {
			if i >= k {
				break
			}
			if t.Pair == p {
				return r.At, true
			}
		}
	}
	return time.Time{}, false
}

// bestRank returns the best (lowest) rank the pair ever achieved, or -1.
func (l *tickLog) bestRank(p pairs.Key) int {
	best := -1
	for _, r := range l.rankings {
		for i, t := range r.Topics {
			if t.Pair == p && (best == -1 || i < best) {
				best = i
			}
		}
	}
	return best
}

// rankTrajectory returns (time, rank) samples of the pair across ticks;
// rank -1 marks ticks where it was absent.
func (l *tickLog) rankTrajectory(p pairs.Key) []trajPoint {
	out := make([]trajPoint, 0, len(l.rankings))
	for _, r := range l.rankings {
		pt := trajPoint{At: r.At, Rank: -1}
		for i, t := range r.Topics {
			if t.Pair == p {
				pt.Rank = i
				pt.Score = t.Score
				break
			}
		}
		out = append(out, pt)
	}
	return out
}

type trajPoint struct {
	At    time.Time
	Rank  int
	Score float64
}

// meanPrecisionDuringEvents averages precision@min(k, |relevant|) over the
// ticks that fall inside any event's active span. Relevant pairs are every
// pair among the event's tags and its category tag: the generator stamps
// the category onto event documents, so those pairs' correlations genuinely
// shift too — flagging them is a correct answer, not noise.
func (l *tickLog) meanPrecisionDuringEvents(events []source.Event, k int) float64 {
	var sum float64
	n := 0
	for _, r := range l.rankings {
		active := map[string]bool{}
		for i := range events {
			// Grace period: an event remains "relevant" for a window after
			// its end, while its shift score is still legitimately high.
			e := &events[i]
			if !r.At.Before(e.Start) && r.At.Before(e.Start.Add(e.Duration+12*time.Hour)) {
				tags := []string{e.Tags[0], e.Tags[1]}
				if e.Category != "" {
					tags = append(tags, e.Category)
				}
				for x := 0; x < len(tags); x++ {
					for y := x + 1; y < len(tags); y++ {
						active[pairs.MakeKey(tags[x], tags[y]).String()] = true
					}
				}
			}
		}
		if len(active) == 0 {
			continue
		}
		kk := k
		if len(active) < kk {
			kk = len(active)
		}
		sum += metrics.PrecisionAtK(r.IDs(), active, kk)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// detectionSummary computes per-event latency rows against the log.
func (l *tickLog) detectionSummary(events []source.Event, k int) []metrics.Latency {
	starts := make(map[string]time.Time, len(events))
	var dets []metrics.Detection
	for i := range events {
		e := &events[i]
		starts[e.Pair().String()] = e.Start
		if at, ok := l.firstTopK(e.Pair(), k); ok {
			dets = append(dets, metrics.Detection{ID: e.Pair().String(), At: at})
		}
	}
	return metrics.DetectionLatencies(starts, dets)
}

// table starts an aligned table on w.
func table(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
}

// section prints an experiment header.
func section(w io.Writer, id, name string) {
	fmt.Fprintf(w, "\n=== %s — %s ===\n", id, name)
}

// fmtDur renders a duration in compact hours.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.1fh", d.Hours())
}

// sortedKeys returns map keys sorted, for deterministic table output.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
