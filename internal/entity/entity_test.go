package entity

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// redirects returns the number of registered alternative namings.
func redirects(g *Gazetteer) int { return len(g.phrases) - len(g.entities) }

func TestOntologyIsA(t *testing.T) {
	o := NewOntology()
	o.AddType("entity", "")
	o.AddType("person", "entity")
	o.AddType("politician", "person")
	tests := []struct {
		typ, anc string
		want     bool
	}{
		{"politician", "person", true},
		{"politician", "entity", true},
		{"politician", "politician", true},
		{"person", "politician", false},
		{"unknown", "entity", false},
		{"politician", "", false},
		{"Politician", "PERSON", true}, // case-insensitive
	}
	for _, tc := range tests {
		if got := o.IsA(tc.typ, tc.anc); got != tc.want {
			t.Errorf("IsA(%q,%q) = %v, want %v", tc.typ, tc.anc, got, tc.want)
		}
	}
}

func TestGazetteerAddLookup(t *testing.T) {
	g := NewGazetteer()
	if err := g.Add("Barack Obama", "politician"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddRedirect("Obama", "Barack Obama"); err != nil {
		t.Fatal(err)
	}
	e, ok := g.Lookup("barack   OBAMA")
	if !ok || e.Name != "barack obama" {
		t.Errorf("Lookup canonical = %+v, %v", e, ok)
	}
	e, ok = g.Lookup("Obama")
	if !ok || e.Name != "barack obama" {
		t.Errorf("Lookup redirect = %+v, %v", e, ok)
	}
	if _, ok := g.Lookup("nobody"); ok {
		t.Error("Lookup(nobody) should fail")
	}
	if len(g.entities) != 1 || (len(g.phrases)-len(g.entities)) != 1 {
		t.Errorf("Len=%d Redirects=%d, want 1/1", len(g.entities), redirects(g))
	}
}

func TestGazetteerMergeTypes(t *testing.T) {
	g := NewGazetteer()
	g.Add("Iceland", "country")
	g.Add("Iceland", "island", "country")
	e, _ := g.Lookup("iceland")
	if !reflect.DeepEqual(e.Types, []string{"country", "island"}) {
		t.Errorf("merged types = %v", e.Types)
	}
}

func TestGazetteerErrors(t *testing.T) {
	g := NewGazetteer()
	if err := g.Add("..."); err == nil {
		t.Error("Add of token-less title should fail")
	}
	if err := g.AddRedirect("alias", "missing target"); err == nil {
		t.Error("redirect to unknown target should fail")
	}
	if err := g.AddRedirect("", "x"); err == nil {
		t.Error("empty alias should fail")
	}
}

func TestTaggerLongestMatch(t *testing.T) {
	g := NewGazetteer()
	g.Add("New York", "city")
	g.Add("New York City", "city")
	g.Add("York", "city")
	tg := NewTagger(g, nil)
	ms := tg.Tag("I moved to New York City last year")
	if len(ms) != 1 {
		t.Fatalf("got %d mentions: %+v", len(ms), ms)
	}
	if ms[0].Entity != "new york city" || ms[0].Terms != 3 {
		t.Errorf("mention = %+v, want longest match", ms[0])
	}
}

func TestTaggerRedirectCanonicalisation(t *testing.T) {
	g, o := Sample()
	tg := NewTagger(g, o)
	for _, doc := range []string{
		"Obama spoke yesterday",
		"President Obama spoke yesterday",
		"Barack Obama spoke yesterday",
	} {
		ents := tg.Entities(doc)
		if !reflect.DeepEqual(ents, []string{"barack obama"}) {
			t.Errorf("Entities(%q) = %v, want [barack obama]", doc, ents)
		}
	}
}

func TestTaggerOffsets(t *testing.T) {
	g, o := Sample()
	tg := NewTagger(g, o)
	doc := "Flights over Iceland were cancelled."
	ms := tg.Tag(doc)
	if len(ms) != 1 {
		t.Fatalf("mentions = %+v", ms)
	}
	if got := doc[ms[0].Start:ms[0].End]; got != "Iceland" {
		t.Errorf("offsets give %q, want Iceland", got)
	}
}

func TestTaggerTypeFilter(t *testing.T) {
	g, o := Sample()
	tg := NewTagger(g, o)
	doc := "Barack Obama visited Athens in Greece"
	all := tg.Entities(doc)
	if len(all) != 3 {
		t.Fatalf("unfiltered entities = %v", all)
	}
	tg.AllowTypes = []string{"location"}
	locs := tg.Entities(doc)
	if !reflect.DeepEqual(locs, []string{"athens", "greece"}) {
		t.Errorf("location-filtered = %v, want [athens greece]", locs)
	}
	tg.AllowTypes = []string{"person"}
	people := tg.Entities(doc)
	if !reflect.DeepEqual(people, []string{"barack obama"}) {
		t.Errorf("person-filtered = %v, want [barack obama]", people)
	}
	// Filtering without an ontology rejects everything.
	tgNoOnt := NewTagger(g, nil)
	tgNoOnt.AllowTypes = []string{"person"}
	if got := tgNoOnt.Entities(doc); len(got) != 0 {
		t.Errorf("filter without ontology = %v, want none", got)
	}
}

func TestTaggerStopwordSingles(t *testing.T) {
	g := NewGazetteer()
	g.Add("US", "country") // normalizes to stopword "us"
	tg := NewTagger(g, nil)
	if got := tg.Entities("they met us yesterday"); len(got) != 0 {
		t.Errorf("stopword single matched: %v", got)
	}
	tg.MatchStopwordSingles = true
	if got := tg.Entities("they met us yesterday"); len(got) != 1 {
		t.Errorf("MatchStopwordSingles off: %v", got)
	}
}

func TestTaggerNoOverlappingMentions(t *testing.T) {
	g := NewGazetteer()
	g.Add("Gulf of Mexico", "location")
	g.Add("Mexico", "country")
	tg := NewTagger(g, nil)
	ms := tg.Tag("oil reached the Gulf of Mexico coast")
	if len(ms) != 1 || ms[0].Entity != "gulf of mexico" {
		t.Errorf("mentions = %+v, want only gulf of mexico", ms)
	}
}

func TestTaggerWindowLimit(t *testing.T) {
	g := NewGazetteer()
	g.Add("a b c d e") // five terms: beyond the default window
	tg := NewTagger(g, nil)
	if ms := tg.Tag("a b c d e"); len(ms) != 0 {
		t.Errorf("five-term phrase matched with window 4: %+v", ms)
	}
	tg.MaxWindow = 5
	if ms := tg.Tag("a b c d e"); len(ms) != 1 {
		t.Errorf("five-term phrase not matched with window 5")
	}
}

func TestTaggerUnicodeRedirect(t *testing.T) {
	g, o := Sample()
	tg := NewTagger(g, o)
	// ASCII redirect resolves to the canonical diacritic title.
	ents := tg.Entities("the eruption of Eyjafjallajokull disrupted flights")
	if !reflect.DeepEqual(ents, []string{"eyjafjallajökull"}) {
		t.Errorf("Entities = %v", ents)
	}
}

func TestEntitiesDeduplicated(t *testing.T) {
	g, o := Sample()
	tg := NewTagger(g, o)
	ents := tg.Entities("Iceland, Iceland, and again Iceland")
	if !reflect.DeepEqual(ents, []string{"iceland"}) {
		t.Errorf("Entities = %v, want deduplicated [iceland]", ents)
	}
}

func TestSampleIntegrity(t *testing.T) {
	g, o := Sample()
	if len(g.entities) < 20 {
		t.Errorf("sample gazetteer has %d entities, want >= 20", len(g.entities))
	}
	if redirects(g) < 10 {
		t.Errorf("sample has %d redirects, want >= 10", redirects(g))
	}
	// Every entity type must be known to the ontology and reach "entity".
	for phrase := range map[string]bool{"iceland": true, "sigmod": true, "hurricane katrina": true} {
		e, ok := g.Lookup(phrase)
		if !ok {
			t.Fatalf("sample missing %q", phrase)
		}
		for _, typ := range e.Types {
			if !o.IsA(typ, "entity") {
				t.Errorf("type %q of %q does not reach entity root", typ, phrase)
			}
		}
	}
}

// Property: tagging never produces overlapping or out-of-bounds mentions,
// and every mention's span resolves through the gazetteer to its entity.
func TestTagProperties(t *testing.T) {
	g, o := Sample()
	tg := NewTagger(g, o)
	f := func(words []string) bool {
		doc := strings.Join(words, " ")
		prevEnd := -1
		for _, m := range tg.Tag(doc) {
			if m.Start < prevEnd || m.End > len(doc) || m.Start >= m.End {
				return false
			}
			prevEnd = m.End
			e, ok := g.Lookup(doc[m.Start:m.End])
			if !ok || e.Name != m.Entity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTaggerTag(b *testing.B) {
	g, o := Sample()
	tg := NewTagger(g, o)
	doc := strings.Repeat("Barack Obama discussed the BP oil spill in the Gulf of Mexico "+
		"while flights over Iceland and the Eyjafjallajokull volcano resumed. ", 5)
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tg.Tag(doc)
	}
}
