package pairs

import (
	"math/rand"
	"strings"
	"testing"
)

// Key.Compare must order exactly like comparing the rendered "tag1+tag2"
// strings — the tie-break contract that keeps rankings and eviction order
// identical to a string-keyed implementation. The vocabulary includes tags
// with bytes above and below '+' and prefix-of-each-other tags, the cases
// where naive pairwise tag comparison would diverge from rendered-string
// comparison, and tags sharing eight or more leading bytes.
func TestKeyCompareMatchesRenderedStrings(t *testing.T) {
	vocab := []string{"a", "a!", "a2", "ab", "b", "+", "zz", "z+", "iceland", "ice", "icelandic", "icelandia", "a\x00"}
	var keys []Key
	for i := range vocab {
		for j := i; j < len(vocab); j++ {
			keys = append(keys, MakeKey(vocab[i], vocab[j]))
		}
	}
	for _, k1 := range keys {
		for _, k2 := range keys {
			want := strings.Compare(k1.String(), k2.String())
			if got := k1.Compare(k2); got != want {
				t.Fatalf("Compare(%q, %q) = %d, want %d", k1, k2, got, want)
			}
			if k1.Less(k2) != (want < 0) {
				t.Fatalf("Less(%q, %q) inconsistent with Compare", k1, k2)
			}
			// The eight-byte rendered prefix never contradicts the order.
			if p1, p2 := k1.renderPrefix(), k2.renderPrefix(); (p1 < p2 && want >= 0) || (p1 > p2 && want <= 0) {
				t.Fatalf("renderPrefix(%q) = %#x, renderPrefix(%q) = %#x contradict Compare %d", k1, p1, k2, p2, want)
			}
		}
	}
}

func TestKeyZeroValue(t *testing.T) {
	var k Key
	if k.Tag1() != "" || k.Tag2() != "" {
		t.Errorf("zero Key tags = %q, %q", k.Tag1(), k.Tag2())
	}
	if k.String() != "+" {
		t.Errorf("zero Key String = %q", k.String())
	}
	if k == MakeKey("a", "b") {
		t.Error("zero Key equals a real key")
	}
}

func TestKeyIDsRoundTrip(t *testing.T) {
	k := MakeKey("volcano", "iceland")
	a, b := k.IDs()
	if KeyFromIDs(a, b) != k || KeyFromIDs(b, a) != k {
		t.Error("KeyFromIDs(IDs()) is not the identity")
	}
}

// Rendering must be independent of interning order: the lexicographically
// smaller tag is always Tag1, even when it was interned second.
func TestKeyRenderOrderIndependentOfInterning(t *testing.T) {
	// Tags unique to this test, so "zz-…" interns after "aa-…" no matter
	// what prior tests put in the shared table — fixed strings keep the
	// test deterministic across runs.
	hi := "zz-keyrender-interned-second"
	lo := "aa-keyrender-interned-first"
	for _, k := range []Key{MakeKey(hi, lo), MakeKey(lo, hi)} {
		if k.Tag1() != lo || k.Tag2() != hi {
			t.Fatalf("render order wrong: %q + %q", k.Tag1(), k.Tag2())
		}
	}
}

// The map-based reference refSimilarityFrom (exclusion-threaded, no copies)
// must agree exactly with the plainer formulation: copy both
// distributions, delete the partner keys, and run the bounded JS
// similarity.
func TestSimilarityFromMatchesCopyDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	vocab := []string{"a", "b", "c", "d", "e", "f"}
	for trial := 0; trial < 500; trial++ {
		dists := map[string]map[string]float64{}
		for _, tag := range vocab {
			m := map[string]float64{}
			for _, co := range vocab {
				if co != tag && rng.Intn(2) == 0 {
					m[co] = float64(1 + rng.Intn(9))
				}
			}
			dists[tag] = m
		}
		a, b := vocab[rng.Intn(len(vocab))], vocab[rng.Intn(len(vocab))]

		// Reference: the old copy-and-delete formulation.
		da := map[string]float64{}
		for k, v := range dists[a] {
			da[k] = v
		}
		db := map[string]float64{}
		for k, v := range dists[b] {
			db[k] = v
		}
		delete(da, b)
		delete(db, a)
		var want float64
		if len(da) == 0 && len(db) == 0 {
			want = 0
		} else {
			want = 1 - refJSDistance(da, db, "", "")
		}

		if got := refSimilarityFrom(dists, a, b); got != want {
			t.Fatalf("trial %d: refSimilarityFrom(%s,%s) = %v, want %v", trial, a, b, got, want)
		}
	}
}

// refSimilarityFrom must not mutate the shared snapshot: the fuzz target
// scores every pair of one snapshot against it.
func TestSimilarityFromDoesNotMutateSnapshot(t *testing.T) {
	dists := map[string]map[string]float64{
		"a": {"b": 2, "x": 3},
		"b": {"a": 1, "x": 3},
	}
	refSimilarityFrom(dists, "a", "b")
	if dists["a"]["b"] != 2 || dists["b"]["a"] != 1 || dists["a"]["x"] != 3 {
		t.Errorf("snapshot mutated: %v", dists)
	}
}
