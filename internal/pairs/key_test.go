package pairs

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Key.Compare must order exactly like comparing the rendered "tag1+tag2"
// strings — the tie-break contract that keeps rankings and eviction order
// identical to a string-keyed implementation. The vocabulary includes tags
// with bytes above and below '+' and prefix-of-each-other tags, the cases
// where naive pairwise tag comparison would diverge from rendered-string
// comparison.
func TestKeyCompareMatchesRenderedStrings(t *testing.T) {
	vocab := []string{"a", "a!", "a2", "ab", "b", "+", "zz", "z+", "iceland", "ice"}
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

func TestDedupTags(t *testing.T) {
	cases := []struct {
		in, want []string
	}{
		{[]string{"a", "b"}, []string{"a", "b"}},
		{[]string{"a", "a", "b"}, []string{"a", "b"}},
		{[]string{"", "a", "", "b", "a"}, []string{"a", "b"}},
		{[]string{"a"}, []string{"a"}},
		{nil, nil},
	}
	for _, tc := range cases {
		got := dedupTags(tc.in)
		if len(got) != len(tc.want) {
			t.Fatalf("dedupTags(%v) = %v, want %v", tc.in, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("dedupTags(%v) = %v, want %v", tc.in, got, tc.want)
			}
		}
	}
}

// A clean small tag set must come back as the input slice itself — the
// zero-allocation fast path.
func TestDedupTagsCleanInputNoCopy(t *testing.T) {
	in := []string{"x", "y", "z"}
	got := dedupTags(in)
	if &got[0] != &in[0] || len(got) != len(in) {
		t.Error("clean input was copied")
	}
	if n := testing.AllocsPerRun(100, func() { dedupTags(in) }); n != 0 {
		t.Errorf("clean dedupTags allocates %.1f, want 0", n)
	}
}

// The map path (> smallTagSet tags) must agree with the scan path.
func TestDedupTagsLargeSet(t *testing.T) {
	var in []string
	for i := 0; i < smallTagSet+8; i++ {
		in = append(in, fmt.Sprintf("t%d", i%11), "")
	}
	got := dedupTags(in)
	if len(got) != 11 {
		t.Fatalf("large dedup kept %d tags, want 11", len(got))
	}
	seen := map[string]bool{}
	for _, tag := range got {
		if tag == "" || seen[tag] {
			t.Fatalf("large dedup output dirty: %v", got)
		}
		seen[tag] = true
	}
}

// SimilarityFrom (exclusion-threaded, no copies) must agree exactly with
// the reference formulation: copy both distributions, delete the partner
// keys, and run the bounded JS similarity.
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
			want = 1 - jsd(da, db)
		}

		if got := SimilarityFrom(dists, a, b); got != want {
			t.Fatalf("trial %d: SimilarityFrom(%s,%s) = %v, want %v", trial, a, b, got, want)
		}
	}
}

// SimilarityFrom must not mutate the shared snapshot.
func TestSimilarityFromDoesNotMutateSnapshot(t *testing.T) {
	dists := map[string]map[string]float64{
		"a": {"b": 2, "x": 3},
		"b": {"a": 1, "x": 3},
	}
	SimilarityFrom(dists, "a", "b")
	if dists["a"]["b"] != 2 || dists["b"]["a"] != 1 || dists["a"]["x"] != 3 {
		t.Errorf("snapshot mutated: %v", dists)
	}
}
