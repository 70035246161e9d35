package text

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizeBasic(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"Hello World", []string{"hello", "world"}},
		{"  spaces   everywhere  ", []string{"spaces", "everywhere"}},
		{"", nil},
		{"...", nil},
		{"one", []string{"one"}},
		{"O'Brien's car", []string{"o'brien's", "car"}},
		{"Jay-Z and Beyonce", []string{"jay-z", "and", "beyonce"}},
		{"trailing- hyphen", []string{"trailing", "hyphen"}},
		{"apostrophe' end", []string{"apostrophe", "end"}},
		{"numbers 123 mix3d", []string{"numbers", "123", "mix3d"}},
		{"punct,separated;terms!", []string{"punct", "separated", "terms"}},
		{"Eyjafjallajökull erupts", []string{"eyjafjallajökull", "erupts"}},
		{"tabs\tand\nnewlines", []string{"tabs", "and", "newlines"}},
	}
	for _, tc := range tests {
		got := Terms(tc.in)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Terms(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestTokenizePositionsAndOffsets(t *testing.T) {
	in := "The quick, brown fox."
	toks := Tokenize(in)
	if len(toks) != 4 {
		t.Fatalf("got %d tokens, want 4", len(toks))
	}
	for i, tok := range toks {
		if tok.Pos != i {
			t.Errorf("token %d: Pos = %d, want %d", i, tok.Pos, i)
		}
		if in[tok.Start:tok.End] != tok.Raw {
			t.Errorf("token %d: offsets [%d,%d) give %q, want raw %q",
				i, tok.Start, tok.End, in[tok.Start:tok.End], tok.Raw)
		}
		if strings.ToLower(tok.Raw) != tok.Term {
			t.Errorf("token %d: Term %q is not lowercase of Raw %q", i, tok.Term, tok.Raw)
		}
	}
	if toks[1].Raw != "quick" || toks[3].Raw != "fox" {
		t.Errorf("unexpected raw tokens: %+v", toks)
	}
}

func TestNormalize(t *testing.T) {
	tests := []struct{ in, want string }{
		{"Hello", "hello"},
		{"  MiXeD  ", "mixed"},
		{"", ""},
		{"ALL", "all"},
	}
	for _, tc := range tests {
		if got := Normalize(tc.in); got != tc.want {
			t.Errorf("Normalize(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestNormalizeAll(t *testing.T) {
	got := NormalizeAll([]string{" A ", "", "b", "  "})
	want := []string{"a", "b"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("NormalizeAll = %v, want %v", got, want)
	}
}

func TestStopwords(t *testing.T) {
	for _, w := range []string{"the", "The", "AND", "of"} {
		if !IsStopword(w) {
			t.Errorf("IsStopword(%q) = false, want true", w)
		}
	}
	for _, w := range []string{"volcano", "iceland", ""} {
		if IsStopword(w) {
			t.Errorf("IsStopword(%q) = true, want false", w)
		}
	}
}

func TestTokenizeProperties(t *testing.T) {
	f := func(s string) bool {
		toks := Tokenize(s)
		prevPos := -1
		prevEnd := 0
		for _, tok := range toks {
			if tok.Pos != prevPos+1 {
				return false
			}
			prevPos = tok.Pos
			if tok.Start < prevEnd || tok.End <= tok.Start || tok.End > len(s) {
				return false
			}
			prevEnd = tok.End
			if s[tok.Start:tok.End] != tok.Raw {
				return false
			}
			if Normalize(tok.Raw) != tok.Term {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: tokenizing the space-join of produced terms reproduces the terms
// (tokenization is idempotent on its own normalized output) for ASCII inputs.
func TestTokenizeIdempotent(t *testing.T) {
	f := func(s string) bool {
		terms := Terms(s)
		again := Terms(strings.Join(terms, " "))
		return reflect.DeepEqual(terms, again)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
