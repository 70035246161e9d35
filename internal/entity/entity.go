// Package entity implements the paper's entity-tagging method: "When a
// document arrives, we scan its text content with a sliding window of up to
// 4 successive terms, and check whether substrings of these match the title
// of a Wikipedia article. These checks also consider Wikipedia redirects
// which we use to map different namings of a single entity to one unique
// name. In addition, we have implemented a second filter consisting of
// lookups in an ontology (e.g., YAGO), which allows us to focus on
// particular entity types."
//
// The Wikipedia title/redirect tables and the YAGO ontology are substituted
// by an in-memory Gazetteer and Ontology with the same lookup semantics;
// arbitrary tables can be loaded, and a realistic sample ships for the
// demos (see Sample).
package entity

import (
	"fmt"
	"sort"
	"strings"

	"enblogue/internal/text"
)

// DefaultMaxWindow is the paper's scan window: up to 4 successive terms.
const DefaultMaxWindow = 4

// Ontology is a type hierarchy (subtype → supertype forest) with transitive
// IsA queries — the stand-in for YAGO's class system.
type Ontology struct {
	super map[string]string
}

// NewOntology returns an empty ontology.
func NewOntology() *Ontology {
	return &Ontology{super: make(map[string]string)}
}

// AddType registers typ with the given supertype; an empty supertype makes
// typ a root. Types are normalized to lower case.
func (o *Ontology) AddType(typ, supertype string) {
	typ = text.Normalize(typ)
	supertype = text.Normalize(supertype)
	if typ == "" {
		return
	}
	o.super[typ] = supertype
}

// IsA reports whether typ equals ancestor or is a transitive subtype of it.
func (o *Ontology) IsA(typ, ancestor string) bool {
	typ = text.Normalize(typ)
	ancestor = text.Normalize(ancestor)
	if ancestor == "" {
		return false
	}
	for cur := typ; cur != ""; {
		if cur == ancestor {
			return true
		}
		next, ok := o.super[cur]
		if !ok {
			return false
		}
		cur = next
	}
	return false
}

// Entity is one canonical gazetteer entry.
type Entity struct {
	// Name is the canonical (normalized) entity name — the "unique name"
	// redirects map to.
	Name string
	// Types are the ontology types assigned to the entity.
	Types []string
}

// Gazetteer maps normalized phrases (up to maxWindow terms) to canonical
// entities, with a redirect table for alternative namings.
type Gazetteer struct {
	entities map[string]*Entity // canonical name → entity
	phrases  map[string]string  // normalized phrase (incl. canonical) → canonical name
	maxTerms int
}

// NewGazetteer returns an empty gazetteer.
func NewGazetteer() *Gazetteer {
	return &Gazetteer{
		entities: make(map[string]*Entity),
		phrases:  make(map[string]string),
	}
}

// normPhrase canonicalises a phrase: tokenize and re-join with single
// spaces, so lookup is insensitive to punctuation and case.
func normPhrase(s string) (string, int) {
	terms := text.Terms(s)
	return strings.Join(terms, " "), len(terms)
}

// Add registers a canonical entity title with its ontology types. Phrases
// longer than DefaultMaxWindow terms are still stored but can never be
// matched by a tagger with the default window. Adding the same title again
// merges types.
func (g *Gazetteer) Add(title string, types ...string) error {
	name, n := normPhrase(title)
	if name == "" {
		return fmt.Errorf("entity: empty title %q", title)
	}
	if n > g.maxTerms {
		g.maxTerms = n
	}
	e, ok := g.entities[name]
	if !ok {
		e = &Entity{Name: name}
		g.entities[name] = e
		g.phrases[name] = name
	}
	for _, t := range types {
		t = text.Normalize(t)
		if t == "" {
			continue
		}
		found := false
		for _, have := range e.Types {
			if have == t {
				found = true
				break
			}
		}
		if !found {
			e.Types = append(e.Types, t)
		}
	}
	sort.Strings(e.Types)
	return nil
}

// AddRedirect maps an alternative naming to a canonical title. The canonical
// entity must already exist.
func (g *Gazetteer) AddRedirect(alias, title string) error {
	from, n := normPhrase(alias)
	to, _ := normPhrase(title)
	if from == "" {
		return fmt.Errorf("entity: empty alias %q", alias)
	}
	if _, ok := g.entities[to]; !ok {
		return fmt.Errorf("entity: redirect target %q not in gazetteer", title)
	}
	if n > g.maxTerms {
		g.maxTerms = n
	}
	g.phrases[from] = to
	return nil
}

// Lookup resolves a phrase (following redirects) to its canonical entity.
func (g *Gazetteer) Lookup(phrase string) (*Entity, bool) {
	name, _ := normPhrase(phrase)
	canon, ok := g.phrases[name]
	if !ok {
		return nil, false
	}
	return g.entities[canon], true
}

// lookupNormalized resolves an already-normalized phrase without re-parsing.
func (g *Gazetteer) lookupNormalized(phrase string) (*Entity, bool) {
	canon, ok := g.phrases[phrase]
	if !ok {
		return nil, false
	}
	return g.entities[canon], true
}

// MaxTerms returns the longest registered phrase length in terms.
func (g *Gazetteer) MaxTerms() int { return g.maxTerms }

// Mention is one entity occurrence found in a document.
type Mention struct {
	// Entity is the canonical entity name.
	Entity string
	// Types are the entity's ontology types.
	Types []string
	// Start and End are byte offsets of the matched span in the input.
	Start, End int
	// Terms is the number of terms the match spans.
	Terms int
}

// Tagger scans text for gazetteer entities with a sliding term window of up
// to MaxWindow successive terms, preferring the longest match at each
// position, and optionally filters mentions to ontology types.
type Tagger struct {
	gaz *Gazetteer
	ont *Ontology
	// MaxWindow is the scan window in terms; 0 means DefaultMaxWindow.
	MaxWindow int
	// AllowTypes restricts mentions to entities having at least one type
	// that IsA one of these; empty means no filtering. Requires ont.
	AllowTypes []string
	// MatchStopwordSingles permits single-term matches that are stopwords
	// ("us", "it"); off by default because such matches are almost always
	// false positives.
	MatchStopwordSingles bool
}

// NewTagger returns a tagger over the given gazetteer and optional ontology
// (required only when AllowTypes is used).
func NewTagger(g *Gazetteer, o *Ontology) *Tagger {
	return &Tagger{gaz: g, ont: o}
}

// typeAllowed applies the ontology filter to an entity's types.
func (t *Tagger) typeAllowed(types []string) bool {
	if len(t.AllowTypes) == 0 {
		return true
	}
	if t.ont == nil {
		return false
	}
	for _, et := range types {
		for _, want := range t.AllowTypes {
			if t.ont.IsA(et, want) {
				return true
			}
		}
	}
	return false
}

// Tag returns the entity mentions of doc, left to right. At each token
// position the longest gazetteer match within the window wins and the scan
// resumes after it (no overlapping mentions).
func (t *Tagger) Tag(doc string) []Mention {
	toks := text.Tokenize(doc)
	maxW := t.MaxWindow
	if maxW <= 0 {
		maxW = DefaultMaxWindow
	}
	if gm := t.gaz.MaxTerms(); gm > 0 && gm < maxW {
		maxW = gm
	}
	var out []Mention
	var sb strings.Builder
	for i := 0; i < len(toks); {
		matched := false
		// Longest match first.
		limit := maxW
		if rest := len(toks) - i; rest < limit {
			limit = rest
		}
		for n := limit; n >= 1; n-- {
			sb.Reset()
			for j := 0; j < n; j++ {
				if j > 0 {
					sb.WriteByte(' ')
				}
				sb.WriteString(toks[i+j].Term)
			}
			phrase := sb.String()
			e, ok := t.gaz.lookupNormalized(phrase)
			if !ok {
				continue
			}
			if n == 1 && !t.MatchStopwordSingles && text.IsStopword(toks[i].Term) {
				continue
			}
			if !t.typeAllowed(e.Types) {
				continue
			}
			out = append(out, Mention{
				Entity: e.Name,
				Types:  e.Types,
				Start:  toks[i].Start,
				End:    toks[i+n-1].End,
				Terms:  n,
			})
			i += n
			matched = true
			break
		}
		if !matched {
			i++
		}
	}
	return out
}

// Entities returns the distinct canonical entity names mentioned in doc, in
// first-mention order — the entity tag set added to stream items.
func (t *Tagger) Entities(doc string) []string {
	var out []string
	seen := make(map[string]bool)
	for _, m := range t.Tag(doc) {
		if !seen[m.Entity] {
			seen[m.Entity] = true
			out = append(out, m.Entity)
		}
	}
	return out
}
