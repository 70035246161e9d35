// Package enblogue is a from-scratch Go reproduction of "EnBlogue —
// Emergent Topic Detection in Web 2.0 Streams" (Alvanaki, Michel,
// Ramamritham, Weikum; SIGMOD 2011), grown into a concurrent,
// subscription-oriented service library.
//
// EnBlogue monitors streams of tagged documents (news, blogs, tweets) and
// detects emergent topics: tag pairs whose correlation suddenly shifts in a
// way that their own history cannot predict. The pipeline has three stages
// — seed tag selection by sliding-window popularity, windowed co-occurrence
// tracking for pairs containing a seed, and shift detection by one-step
// prediction error with an exponentially decaying score maximum (half-life
// ≈ 2 days).
//
// This package is the public API. An Engine is constructed with functional
// options, fed a stream of Items, and observed through subscriptions —
// the paper's "users register continuous keyword queries" model: every
// subscriber may carry its own persona Profile and top-k, so one shared
// ingest pipeline serves many differently-ranked views.
//
//	engine := enblogue.New(
//		enblogue.WithShards(8),
//		enblogue.WithMeasure(enblogue.Jaccard),
//		enblogue.WithTopK(10),
//	)
//	sub := engine.Subscribe(ctx,
//		enblogue.SubProfile(&enblogue.Profile{Keywords: []string{"volcano"}}))
//	go func() {
//		for n := range sub.Notifications() {
//			r := n.Ranking()
//			fmt.Println(r.At, r.IDs())
//		}
//	}()
//	items, _ := enblogue.TweetScenario(48 * time.Hour)
//	err := engine.Run(ctx, items) // Consume each item, then Flush
//	engine.Close()
//
// Delivery is push-based and non-blocking: each subscription owns a
// bounded channel with drop-oldest semantics and a drop counter, so a slow
// consumer always converges on the newest state and can never stall the
// engine or its sibling subscribers. Subscriptions may carry predicates —
// WithTags, WithAllTags, WithMinScore, WithEmergenceOnly — compiled once
// at Subscribe time and dispatched through an inverted tag index: a
// predicated subscription is notified only on ticks where its filtered
// view changed, and ticks that move none of its tags cost it nothing.
//
// One process can host many independent topic streams through a Hub of
// named tenants — one per community, feed, language, or customer. Each
// tenant is a full Engine layering its own options over hub-wide defaults
// (create-or-get Open, CloseTenant, hub-wide Flush/Close, aggregate
// Stats); tenants share only the process-wide tag intern table, a memory
// optimisation that never affects rankings, so a tenant's output is
// bit-identical to a standalone engine fed the same items. The HTTP
// front-end mirrors the hub as the tenant-scoped /v1/tenants wire
// contract; see DESIGN.md §7.
//
// The implementation lives under internal/: the core engine and
// subscription broker in internal/core, one package per substrate (stream
// DAG, windows, sketches, tag statistics, pair correlation, prediction,
// shift scoring, ranking, entity tagging, personalization, burst-detection
// baseline, data sources, metrics, versioned HTTP front-end), runnable
// binaries under cmd/, and runnable examples under examples/ — all the
// examples use only this public package. The benchmarks in bench_test.go
// regenerate every evaluation artifact of the paper (see DESIGN.md §4);
// performance is measured by the bench/ module.
//
// The engine core is sharded: the pair space is partitioned by hash across
// tracker shards guarded by the engine's one bookkeeping lock, there is one
// ingest path and no queue in front of it (Consume is ConsumeBatch over a
// batch of one; concurrent producers are safe and serialise on that lock;
// Run batches a source's items itself), and every evaluation tick
// scores all shards in parallel before a deterministic top-k merge.
// Rankings are bit-identical for every shard count and however the stream
// is cut into batches; see DESIGN.md §3 and §8.
// The subscription broker and the versioned /v1 wire contract are
// documented in DESIGN.md §5.
package enblogue
