// Package text provides tokenization and normalization utilities used by the
// entity tagger and the synthetic data generators.
//
// The paper scans document text "with a sliding window of up to 4 successive
// terms"; this package supplies the term stream that window runs over.
package text

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Token is a single term extracted from running text. It keeps the position
// (term index) and byte offsets so that taggers can report where an entity
// mention occurred.
type Token struct {
	Term  string // normalized form
	Raw   string // original surface form
	Pos   int    // term index within the document, starting at 0
	Start int    // byte offset of the raw form in the input
	End   int    // byte offset one past the raw form
}

// Tokenize splits s into word tokens. A token is a maximal run of letters
// or digits, possibly joined by the connector characters '\” and '-' when
// they appear inside a word (so "O'Brien" and "Jay-Z" stay single tokens,
// but a trailing apostrophe is trimmed). The normalized term is the
// lower-cased surface form. Invalid UTF-8 bytes are treated as separators.
func Tokenize(s string) []Token {
	var toks []Token
	i := 0
	pos := 0
	for i < len(s) {
		r, size := utf8.DecodeRuneInString(s[i:])
		if !isWordRune(r) {
			i += size
			continue
		}
		start := i
		i += size
		for i < len(s) {
			r, size = utf8.DecodeRuneInString(s[i:])
			if isWordRune(r) {
				i += size
				continue
			}
			if (r == '\'' || r == '-') && nextIsWord(s, i+size) {
				i += size
				continue
			}
			break
		}
		raw := s[start:i]
		toks = append(toks, Token{
			Term:  Normalize(raw),
			Raw:   raw,
			Pos:   pos,
			Start: start,
			End:   i,
		})
		pos++
	}
	return toks
}

// isWordRune reports whether r is part of a word: a letter or digit. The
// RuneError produced by invalid UTF-8 is excluded.
func isWordRune(r rune) bool {
	if r == utf8.RuneError {
		return false
	}
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

// nextIsWord reports whether the rune starting at byte i is a word rune.
func nextIsWord(s string, i int) bool {
	if i >= len(s) {
		return false
	}
	r, _ := utf8.DecodeRuneInString(s[i:])
	return isWordRune(r)
}

// Normalize lower-cases a term. It is the single normalization used across
// the system so that tags, entities, and text tokens compare consistently.
func Normalize(term string) string {
	return strings.ToLower(strings.TrimSpace(term))
}

// NormalizeAll normalizes every string in ss, dropping empties, and returns a
// new slice.
func NormalizeAll(ss []string) []string {
	out := make([]string, 0, len(ss))
	for _, s := range ss {
		n := Normalize(s)
		if n != "" {
			out = append(out, n)
		}
	}
	return out
}

// Terms returns just the normalized terms of the tokens of s, or nil when s
// contains no tokens. Convenience wrapper used by generators and tests.
func Terms(s string) []string {
	toks := Tokenize(s)
	if len(toks) == 0 {
		return nil
	}
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Term
	}
	return out
}

// defaultStopwords is a compact English stopword list. It covers the function
// words that dominate web text; generators and the tagger use it to avoid
// treating glue words as content terms.
var defaultStopwords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true, "at": true,
	"be": true, "but": true, "by": true, "for": true, "from": true,
	"had": true, "has": true, "have": true, "he": true, "her": true,
	"his": true, "i": true, "in": true, "is": true, "it": true, "its": true,
	"not": true, "of": true, "on": true, "or": true, "she": true,
	"that": true, "the": true, "their": true, "they": true, "this": true,
	"to": true, "was": true, "were": true, "will": true, "with": true,
	"you": true, "we": true, "our": true, "been": true, "than": true,
	"then": true, "there": true, "these": true, "those": true, "what": true,
	"when": true, "which": true, "who": true, "would": true, "about": true,
	"after": true, "also": true, "into": true, "over": true, "said": true,
	"some": true, "up": true, "out": true, "no": true, "new": true,
	"more": true, "other": true, "one": true, "two": true, "if": true,
	"do": true, "did": true, "so": true, "can": true, "could": true,
	"all": true, "any": true, "my": true, "your": true, "him": true,
	"them": true, "us": true, "me": true, "how": true, "why": true,
	"because": true, "while": true, "during": true, "before": true,
	"between": true, "under": true, "against": true, "through": true,
}

// IsStopword reports whether the normalized term is a stopword.
func IsStopword(term string) bool {
	return defaultStopwords[Normalize(term)]
}
