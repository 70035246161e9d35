package pairs

import "time"

// observe feeds one document through ObserveBatch — the tracker's only
// ingest routine — as a batch of one.
func (tr *ShardedTracker) observe(t time.Time, tags []string, isSeed func(string) bool) {
	tr.ObserveBatch([]BatchDoc{{Time: t, Tags: tags}}, isSeed)
}
