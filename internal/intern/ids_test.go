package intern

import (
	"fmt"
	"slices"
	"testing"
)

// lookupAll renders ids back to strings through the process-wide table.
func lookupAll(ids []uint32) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = Lookup(id)
	}
	return out
}

// Append keeps each non-empty tag once, at its first position, and appends
// after whatever dst already holds.
func TestDedupAppend(t *testing.T) {
	var d Dedup
	cases := []struct {
		in, want []string
	}{
		{[]string{"dd-a", "dd-b"}, []string{"dd-a", "dd-b"}},
		{[]string{"dd-a", "dd-a", "dd-b"}, []string{"dd-a", "dd-b"}},
		{[]string{"", "dd-a", "", "dd-b", "dd-a"}, []string{"dd-a", "dd-b"}},
		{[]string{"dd-b", "dd-a", "dd-b"}, []string{"dd-b", "dd-a"}},
		{[]string{"dd-a"}, []string{"dd-a"}},
		{[]string{""}, nil},
		{nil, nil},
	}
	for _, tc := range cases {
		got := lookupAll(d.Append(nil, tc.in))
		if !slices.Equal(got, tc.want) {
			t.Errorf("Append(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	// The stamps are per call: a tag seen in the previous document is kept
	// again, and dst's existing elements are left alone.
	prefix := []uint32{7}
	got := d.Append(prefix, []string{"dd-a", "dd-a"})
	if len(got) != 2 || got[0] != 7 || Lookup(got[1]) != "dd-a" {
		t.Errorf("Append onto a prefix = %v", got)
	}
}

// Documents of any size take the same path: 40 tags over 11 distinct
// values, empties interleaved.
func TestDedupAppendLargeSet(t *testing.T) {
	var in, want []string
	for i := 0; i < 40; i++ {
		tag := fmt.Sprintf("dd-large-%d", i%11)
		if i%5 == 4 {
			tag = ""
		}
		in = append(in, tag)
		if tag != "" && !slices.Contains(want, tag) {
			want = append(want, tag)
		}
	}
	var d Dedup
	if got := lookupAll(d.Append(nil, in)); !slices.Equal(got, want) {
		t.Fatalf("large dedup = %q, want %q", got, want)
	}
}

// Once the stamps cover the vocabulary, deduplicating allocates nothing,
// whatever the document size.
func TestDedupAppendZeroAlloc(t *testing.T) {
	small := []string{"dd-z1", "dd-z2", "dd-z1", "", "dd-z3"}
	var wide []string
	for i := 0; i < 40; i++ {
		wide = append(wide, fmt.Sprintf("dd-wide-%d", i%30))
	}
	wide[5], wide[17] = "", ""
	var d Dedup
	buf := make([]uint32, 0, 64)
	d.Append(buf, small)
	d.Append(buf, wide)
	avg := testing.AllocsPerRun(100, func() {
		buf = d.Append(buf[:0], small)
		buf = d.Append(buf[:0], wide)
	})
	if avg != 0 {
		t.Errorf("steady-state Append allocates %.1f per run, want 0", avg)
	}
}

// When the epoch wraps, stale stamps must not read as "already seen".
func TestDedupEpochWrap(t *testing.T) {
	var d Dedup
	tags := []string{"dd-wrap-a", "dd-wrap-b"}
	d.Append(nil, tags)
	id := Intern("dd-wrap-a")
	// The next Append wraps the epoch; a stamp left at 1 from 2^32
	// documents ago would alias the restarted epoch without the clear.
	d.epoch = ^uint32(0)
	d.stamp[id] = 1
	for i := 0; i < 3; i++ {
		if got := lookupAll(d.Append(nil, tags)); !slices.Equal(got, tags) {
			t.Fatalf("append %d around the wrap = %q, want %q", i, got, tags)
		}
	}
}

func TestSet(t *testing.T) {
	var s Set
	if s.Has(0) || s.Has(1000) {
		t.Fatal("empty set has members")
	}
	s.Add(3)
	s.Add(40)
	s.Add(3)
	if !s.Has(3) || !s.Has(40) || s.Has(4) || s.Has(41) {
		t.Fatalf("membership wrong after Add: %v", s.members)
	}
	if len(s.members) != 2 {
		t.Fatalf("members = %v, want two", s.members)
	}
	s.Reset()
	if s.Has(3) || s.Has(40) || len(s.members) != 0 {
		t.Fatal("Reset left members")
	}
	s.Add(40)
	if !s.Has(40) || s.Has(3) {
		t.Fatal("membership wrong after Reset and Add")
	}
}
