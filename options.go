package enblogue

import (
	"time"

	"enblogue/internal/core"
)

// Options come in two levels of application:
//
//   - Option (tenant-level) configures one Engine. It applies at New, and
//     per tenant at Hub.Open, where it overrides the hub's defaults.
//   - HubOption (hub-level) configures a Hub at NewHub: engine defaults
//     shared by every tenant (HubDefaults) and hub-wide limits
//     (HubMaxTenants).
//
// Every engine construction path funnels through core.Config normalization,
// so nonsensical settings (negative shards, zero windows, top-k < 1) are
// clamped to the paper's defaults rather than building a wedged engine.

// Option configures an Engine at construction — directly via New, or per
// tenant via Hub.Open. Options replace the raw config struct as the public
// construction surface: unspecified settings keep the paper's defaults, and
// new knobs can be added without breaking callers.
type Option func(*core.Config)

// HubOption configures a Hub at construction (NewHub). Hub-level options
// are distinct from engine-level ones: they describe the registry — shared
// tenant defaults and limits — not any single engine.
type HubOption func(*core.HubConfig)

// HubDefaults sets the engine options every tenant starts from; options
// passed to Hub.Open layer over these per tenant.
func HubDefaults(opts ...Option) HubOption {
	return func(hc *core.HubConfig) {
		for _, o := range opts {
			if o != nil {
				o(&hc.Defaults)
			}
		}
	}
}

// HubMaxTenants caps the number of simultaneously open tenants (Open
// returns an error beyond it). Zero or negative means unlimited — the
// default.
func HubMaxTenants(n int) HubOption {
	return func(hc *core.HubConfig) { hc.MaxTenants = n }
}

// WithWindow sets the sliding statistics window: buckets of the given
// resolution (default 48 × 1 hour).
func WithWindow(buckets int, resolution time.Duration) Option {
	return func(c *core.Config) {
		c.WindowBuckets = buckets
		c.WindowResolution = resolution
	}
}

// WithTickEvery sets the evaluation period in event time (default: one
// window resolution).
func WithTickEvery(d time.Duration) Option {
	return func(c *core.Config) { c.TickEvery = d }
}

// WithSeedCount sets the size of the seed tag set (default 50).
func WithSeedCount(n int) Option {
	return func(c *core.Config) { c.SeedCount = n }
}

// WithSeedMinCount sets the minimum windowed count for seed candidacy
// (default 3).
func WithSeedMinCount(min float64) Option {
	return func(c *core.Config) { c.SeedMinCount = min }
}

// WithSeedWarmup bootstraps the first seed selection after n documents
// instead of waiting for the first tick (default 100).
func WithSeedWarmup(n int) Option {
	return func(c *core.Config) { c.SeedWarmupDocs = n }
}

// WithMaxPairs caps tracked candidate pairs (default 100000).
func WithMaxPairs(n int) Option {
	return func(c *core.Config) { c.MaxPairs = n }
}

// WithTailSketch enables the tiered exact/sketch memory model for
// unbounded tag vocabularies: pairs evicted by the MaxPairs cap are demoted
// into a windowed Count-Min sketch (additive error at most epsilon × tail
// mass with probability 1−delta) plus a Space-Saving heavy-hitter summary
// of topK candidates per shard, and are promoted back into the exact tier —
// counter seeded from the upper-bound estimate, flagged approximate — when
// their estimated count crosses the admission floor. Memory stays bounded
// by MaxPairs + the fixed sketch size no matter how many distinct tags the
// stream carries. Out-of-range epsilon/delta fall back to 0.01, topK < 1 to
// 512. Tier statistics (tailPairs, estimatedErrorBound, promotions, …)
// appear in /v1 stats and Engine.TailStats.
func WithTailSketch(epsilon, delta float64, topK int) Option {
	return func(c *core.Config) {
		c.TailSketch = core.TailSketchConfig{
			Enabled: true,
			Epsilon: epsilon,
			Delta:   delta,
			TopK:    topK,
		}
	}
}

// WithShards partitions the pair space for concurrent tracking and
// parallel tick evaluation. Rankings do not depend on the shard count on a
// sequentially consumed stream, so this is purely a throughput knob
// (default: one shard per available CPU).
func WithShards(n int) Option {
	return func(c *core.Config) { c.Shards = n }
}

// WithMeasure selects the pair correlation measure (default Jaccard).
func WithMeasure(m Measure) Option {
	return func(c *core.Config) { c.Measure = m }
}

// WithDistributionMode switches correlation from set overlap to the
// paper's information-theoretic alternative: pair correlation becomes the
// Jensen–Shannon similarity of the two tags' co-tag usage distributions.
// The distributions come from a second pair tracker that counts every
// pair, seed or not, bounded by the same WithMaxPairs budget as the first.
// Overrides WithMeasure.
func WithDistributionMode() Option {
	return func(c *core.Config) { c.DistributionMode = true }
}

// WithPredictor selects the correlation forecaster whose error is the
// shift signal (default moving average).
func WithPredictor(p Predictor) Option {
	return func(c *core.Config) { c.Predictor = p }
}

// WithPredictorConfig tunes the selected predictor.
func WithPredictorConfig(cfg PredictorConfig) Option {
	return func(c *core.Config) { c.PredictorConfig = cfg }
}

// WithHalfLife dampens past prediction errors with the given half-life
// (default 2 days).
func WithHalfLife(d time.Duration) Option {
	return func(c *core.Config) { c.HalfLife = d }
}

// WithMinCooccurrence sets the significance floor for scoring (default 2).
func WithMinCooccurrence(min float64) Option {
	return func(c *core.Config) { c.MinCooccurrence = min }
}

// WithUpOnly restricts shifts to correlation increases.
func WithUpOnly() Option {
	return func(c *core.Config) { c.UpOnly = true }
}

// WithTopK sets the ranking length (default 20).
func WithTopK(k int) Option {
	return func(c *core.Config) { c.TopK = k }
}

// WithEntities merges entity tags into the tag space so tag/entity
// mixtures can emerge as topics. A non-nil tagger additionally annotates
// items that arrive with text but no entities; pass nil to rely on the
// entities already present on each item.
func WithEntities(t *Tagger) Option {
	return func(c *core.Config) {
		c.UseEntities = true
		c.Tagger = t
	}
}

// DurabilityOption tunes the persistence layer enabled by WithDurability.
type DurabilityOption func(*core.DurabilityConfig)

// WithDurability enables snapshot + write-ahead-log persistence rooted at
// dir: prior state in dir is recovered during New (newest valid snapshot
// plus WAL replay, bit-identical to an engine that never stopped), every
// consumed document is appended to the WAL, and snapshots are written on a
// background ticker and via Engine.Snapshot. On a Hub, each tenant persists
// under its own subdirectory of dir. The directory is created if missing.
func WithDurability(dir string, opts ...DurabilityOption) Option {
	return func(c *core.Config) {
		c.Durability.Dir = dir
		for _, o := range opts {
			if o != nil {
				o(&c.Durability)
			}
		}
	}
}

// SnapshotEvery sets the background snapshot period (default one minute).
// Negative disables the ticker; snapshots then happen only via
// Engine.Snapshot and the WAL alone carries recovery.
func SnapshotEvery(d time.Duration) DurabilityOption {
	return func(c *core.DurabilityConfig) { c.SnapshotEvery = d }
}

// Fsync selects the WAL flush policy (default FsyncInterval: at most one
// sync per second, so a process crash loses nothing and a power loss at
// most one interval).
func Fsync(m FsyncMode) DurabilityOption {
	return func(c *core.DurabilityConfig) { c.Fsync = m }
}

// FsyncEvery sets the FsyncInterval period (default one second).
func FsyncEvery(d time.Duration) DurabilityOption {
	return func(c *core.DurabilityConfig) { c.FsyncEvery = d }
}

// KeepSnapshots sets how many snapshot generations to retain (default 2);
// older snapshots and the WAL segments they cover are pruned after each
// successful snapshot.
func KeepSnapshots(n int) DurabilityOption {
	return func(c *core.DurabilityConfig) { c.KeepSnapshots = n }
}
