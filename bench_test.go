// Benchmarks regenerating the paper's evaluation artifacts, one target per
// table/figure (see DESIGN.md §4 for the index):
//
//	BenchmarkFigure1            — F1, the correlation-shift illustration
//	BenchmarkShowcase1          — SC1, archive replay with historic events
//	BenchmarkShowcase2          — SC2, live SIGMOD/Athens time lapse
//	BenchmarkShowcase3          — SC3, personalization
//	BenchmarkBaselineComparison — B1, enBlogue vs burst detection
//	BenchmarkThroughputSharedPlans — P1, plan sharing (shared vs private operators)
//	BenchmarkAblation*          — A1, measure/predictor/half-life sweeps
//	BenchmarkEntityTagging      — E1, tagger accuracy workload
//
// Run: go test -bench=. -benchmem
package enblogue_test

import (
	"io"
	"testing"
	"time"

	"enblogue/internal/core"
	"enblogue/internal/experiments"
	"enblogue/internal/pairs"
	"enblogue/internal/predict"
	"enblogue/internal/source"
	"enblogue/internal/stream"
)

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunF1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShowcase1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSC1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShowcase2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSC2(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShowcase3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSC3(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselineComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunB1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDocs caches the throughput workload across benchmark targets.
var benchDocs []source.Document

func throughputDocs(b *testing.B) []*stream.Item {
	b.Helper()
	if benchDocs == nil {
		benchDocs = experiments.GenerateArchiveCached(source.ArchiveConfig{
			Seed: 99, Start: time.Date(2007, 1, 1, 0, 0, 0, 0, time.UTC),
			Days: 10, DocsPerDay: 1500,
		})
	}
	items := make([]*stream.Item, len(benchDocs))
	for i := range benchDocs {
		items[i] = benchDocs[i].Item()
	}
	return items
}

// BenchmarkThroughputSharedPlans measures the multi-plan runner with shared
// vs private operator prefixes (P1's sharing comparison).
func BenchmarkThroughputSharedPlans(b *testing.B) {
	if _, err := experiments.RunP1(io.Discard); err != nil {
		b.Fatal(err)
	}
	// RunP1 prints docs/sec itself in table form; the benchmark target
	// exists so `go test -bench` regenerates P1 alongside the others.
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.RunP1(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationMeasures times one engine pass per correlation measure
// over the archive workload (A1's measure dimension).
func BenchmarkAblationMeasures(b *testing.B) {
	items := throughputDocs(b)
	for _, m := range pairs.AllMeasures() {
		b.Run(m.String(), func(b *testing.B) {
			e := core.New(core.Config{Measure: m})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Consume(items[i%len(items)])
			}
		})
	}
}

// BenchmarkAblationPredictors times one engine pass per predictor (A1's
// predictor dimension).
func BenchmarkAblationPredictors(b *testing.B) {
	items := throughputDocs(b)
	for _, k := range predict.AllKinds() {
		b.Run(k.String(), func(b *testing.B) {
			e := core.New(core.Config{Predictor: k})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Consume(items[i%len(items)])
			}
		})
	}
}

// BenchmarkAblationFull runs the complete A1 quality sweep (detection and
// precision per configuration).
func BenchmarkAblationFull(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunA1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEntityTagging(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
