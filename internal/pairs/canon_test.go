package pairs

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The canonical export order is a contract: CanonicalRanks must give
// exactly the order sort.Slice with Key.Less gives, and TagTable exactly the
// sorted tag table with each key's tags at their positions. The
// vocabularies hold what a shortcut gets wrong: '+' itself, bytes below it
// (space, '!', '#', '*'), a byte above ASCII, and tags that begin with
// another tag plus "+" — where rendering t1+"+" is a proper prefix of
// another key's first tag plus "+".

// canonAlphabet is the byte set random vocabularies draw from.
const canonAlphabet = "ab+ !#*\xff"

// checkCanonical fails t unless CanonicalRanks and TagTable agree with
// Key.Less and Key.Tags on keys.
func checkCanonical(t *testing.T, keys []Key) {
	t.Helper()
	want := slices.Clone(keys)
	sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })
	rank := CanonicalRanks(keys)
	if len(rank) != len(keys) {
		t.Fatalf("CanonicalRanks returned %d ranks for %d keys", len(rank), len(keys))
	}
	for i, r := range rank {
		if int(r) >= len(want) || keys[i] != want[r] {
			t.Fatalf("CanonicalRanks puts %q at %d, Key.Less puts it elsewhere (order %q)", keys[i], r, want)
		}
	}

	table, pos := TagTable(keys)
	var tags []string
	for _, k := range keys {
		a, b := k.Tags()
		tags = append(tags, a, b)
	}
	slices.Sort(tags)
	tags = slices.Compact(tags)
	if !slices.Equal(table, tags) {
		t.Fatalf("TagTable table = %q, want %q", table, tags)
	}
	for i, k := range keys {
		a, b := k.Tags()
		if table[pos[2*i]] != a || table[pos[2*i+1]] != b {
			t.Fatalf("key %q encodes as (%q, %q)", k, table[pos[2*i]], table[pos[2*i+1]])
		}
	}
}

// allPairs returns every pair of distinct tags in vocab.
func allPairs(vocab []string) []Key {
	var keys []Key
	for i := range vocab {
		for j := i + 1; j < len(vocab); j++ {
			if vocab[i] != vocab[j] {
				keys = append(keys, MakeKey(vocab[i], vocab[j]))
			}
		}
	}
	return keys
}

func TestCanonicalOrderAdversarialVocabulary(t *testing.T) {
	vocab := []string{
		"a", "a!", "a+b", "a b", "ab", "a+", "a++", "a+b+c", "new york", "new york+times",
		"+", "++", "+z", "*", "*+", " ", "!", "#", "\xff", "a\xff", "b", "a#", "a*",
	}
	checkCanonical(t, allPairs(vocab))
	// The fallback pair: ("*", "+z") renders after ("*+", "+").
	checkCanonical(t, []Key{MakeKey("*", "+z"), MakeKey("*+", "+")})
	// No tag here begins with another plus "+", so nothing falls back and
	// the words alone must order "b!+…" before "b+…" and "n y+…" before
	// "n+…", against plain tag order.
	checkCanonical(t, allPairs([]string{"b", "b!", "b c", "bc", "n", "n y", "ny", "+", "#", "\xff", "b\xff"}))
}

// TestCanonicalOrderEveryInternOrder interns a six-tag vocabulary in every
// order (a fresh prefix per order, so each order assigns fresh IDs) and
// checks the order of all its pairs.
func TestCanonicalOrderEveryInternOrder(t *testing.T) {
	vocab := []string{"a", "a+", "a+b", "*", "+", "a!"}
	perm := []int{0, 1, 2, 3, 4, 5}
	n := 0
	var permute func(k int)
	permute = func(k int) {
		if k == len(perm) {
			prefix := fmt.Sprintf("io%03d:", n)
			n++
			tags := make([]string, len(vocab))
			for _, p := range perm {
				tags[p] = prefix + vocab[p]
				MakeKey(tags[p], tags[p]) // interns in perm order
			}
			checkCanonical(t, allPairs(tags))
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			permute(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	permute(0)
	if n != 720 {
		t.Fatalf("checked %d intern orders, want 720", n)
	}
}

func TestCanonicalOrderSeededVocabularies(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vocab := make([]string, 2+rng.Intn(30))
		for i := range vocab {
			b := make([]byte, 1+rng.Intn(4))
			for j := range b {
				b[j] = canonAlphabet[rng.Intn(len(canonAlphabet))]
			}
			vocab[i] = string(b)
		}
		keys := sortedUnique(allPairs(vocab))
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		checkCanonical(t, keys[:rng.Intn(len(keys)+1)])
	}
}

// sortedUnique drops duplicate keys (equal tag pairs drawn twice).
func sortedUnique(keys []Key) []Key {
	slices.SortFunc(keys, func(a, b Key) int { return a.Compare(b) })
	return slices.Compact(keys)
}

// FuzzCanonicalOrderMatchesCompare builds a vocabulary from the input — each
// byte picks a letter of canonAlphabet or ends the tag — and checks the
// order of all its pairs.
func FuzzCanonicalOrderMatchesCompare(f *testing.F) {
	f.Add([]byte{0, 8, 0, 2, 1, 8, 6, 8, 6, 2, 8, 2, 1})
	f.Add([]byte{0, 2, 8, 0, 2, 2, 8, 0, 2, 1, 2, 8, 3, 8, 7, 8, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		var vocab []string
		var cur []byte
		for _, c := range data {
			if c%9 == 8 || len(cur) == 6 {
				if len(cur) > 0 {
					vocab = append(vocab, string(cur))
				}
				cur = cur[:0]
				if c%9 == 8 {
					continue
				}
			}
			cur = append(cur, canonAlphabet[c%9])
		}
		if len(cur) > 0 {
			vocab = append(vocab, string(cur))
		}
		if len(vocab) > 24 {
			vocab = vocab[:24]
		}
		keys := sortedUnique(allPairs(vocab))
		slices.Reverse(keys)
		checkCanonical(t, keys)
	})
}
