package driver

import (
	"sort"
	"strings"
)

// A FactSet holds every fact visible during a run, keyed by package path,
// then analyzer name, then fact key. Facts are opaque strings: each
// analyzer defines its own key/value grammar (see the analyzer packages).
// One FactSet lives for the whole run and packages are analyzed in
// dependency order, so facts simply accumulate.
type FactSet struct {
	byPkg map[string]map[string]map[string]string
}

// NewFactSet returns an empty fact set.
func NewFactSet() *FactSet {
	return &FactSet{byPkg: make(map[string]map[string]map[string]string)}
}

func (fs *FactSet) put(pkg, analyzer, key, value string) {
	byA := fs.byPkg[pkg]
	if byA == nil {
		byA = make(map[string]map[string]string)
		fs.byPkg[pkg] = byA
	}
	kv := byA[analyzer]
	if kv == nil {
		kv = make(map[string]string)
		byA[analyzer] = kv
	}
	kv[key] = value
}

func (fs *FactSet) get(pkg, analyzer, key string) (string, bool) {
	v, ok := fs.byPkg[pkg][analyzer][key]
	return v, ok
}

// withPrefix returns all facts of one analyzer across every package whose
// key starts with prefix, sorted by (key, value) for determinism.
func (fs *FactSet) withPrefix(analyzer, prefix string) []FactKV {
	var out []FactKV
	for _, byA := range fs.byPkg {
		for k, v := range byA[analyzer] {
			if strings.HasPrefix(k, prefix) {
				out = append(out, FactKV{k, v})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Value < out[j].Value
	})
	return out
}
