package source

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"enblogue/internal/pairs"
)

// Property: any generated document slice survives a JSONL round trip
// exactly (times compared at UTC nanosecond resolution).
func TestJSONLRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		docs := make([]Document, int(n)%32)
		for i := range docs {
			docs[i] = Document{
				Time:   t0.Add(time.Duration(rng.Int63n(1e15))).UTC(),
				ID:     fmt.Sprintf("doc-%d-%d", seed, i),
				Tags:   []string{fmt.Sprintf("t%d", rng.Intn(9))},
				Text:   strings.Repeat("x", rng.Intn(40)),
				Source: "prop",
			}
			if rng.Intn(2) == 0 {
				docs[i].Entities = []string{"barack obama"}
			}
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, docs); err != nil {
			return false
		}
		got, skipped, err := ReadJSONL(&buf, true)
		if err != nil || skipped != 0 {
			return false
		}
		if len(docs) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(docs, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the lenient reader never errors on arbitrary garbage lines and
// returns only well-formed documents.
func TestReadJSONLGarbageTolerance(t *testing.T) {
	f := func(lines []string) bool {
		in := strings.Join(lines, "\n")
		docs, _, err := ReadJSONL(strings.NewReader(in), false)
		if err != nil {
			// Only scanner-level failures (overlong tokens) may error; our
			// generated lines are short strings, so no error is expected.
			return false
		}
		for _, d := range docs {
			_ = d // every returned doc decoded cleanly by construction
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Merge produces a time-sorted permutation of its inputs.
func TestMergeProperty(t *testing.T) {
	f := func(seed int64, a8, b8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func(n int, prefix string) []Document {
			docs := make([]Document, n%16)
			for i := range docs {
				docs[i] = Document{
					Time: t0.Add(time.Duration(rng.Intn(1000)) * time.Minute),
					ID:   fmt.Sprintf("%s%d", prefix, i),
				}
			}
			SortDocs(docs)
			return docs
		}
		a, b := mk(int(a8), "a"), mk(int(b8), "b")
		m := Merge(a, b)
		if len(m) != len(a)+len(b) {
			return false
		}
		for i := 1; i < len(m); i++ {
			if m[i].Time.Before(m[i-1].Time) {
				return false
			}
		}
		seen := map[string]bool{}
		for _, d := range m {
			if seen[d.ID] {
				return false
			}
			seen[d.ID] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Generators must produce documents whose pair events match the events:
// every event pair co-occurs somewhere in the output.
func TestArchiveCoversAllEventPairs(t *testing.T) {
	start := t0
	events := HistoricEvents(start)
	docs := GenerateArchive(ArchiveConfig{
		Seed: 5, Start: start, Days: 25, DocsPerDay: 50, Events: events,
	})
	truth := map[pairs.Key]bool{}
	for i := range events {
		truth[events[i].Pair()] = true
	}
	covered := map[string]bool{}
	for _, d := range docs {
		has := map[string]bool{}
		for _, tag := range d.Tags {
			has[tag] = true
		}
		for k := range truth {
			// k is a pairs.Key; check both tags present.
			if has[k.Tag1()] && has[k.Tag2()] {
				covered[k.String()] = true
			}
		}
	}
	if len(covered) != len(truth) {
		t.Errorf("covered %d/%d event pairs", len(covered), len(truth))
	}
}
