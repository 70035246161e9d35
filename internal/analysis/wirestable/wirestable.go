// Package wirestable freezes the /v1 wire surface. Every struct the
// server marshals to clients carries an `//enblogue:wire` annotation; its
// JSON field names are recorded in a committed manifest
// (internal/analysis/wiremanifest.json). The analyzer re-derives the wire
// shape from the source on every vet run and diffs it against the
// manifest:
//
//   - a manifest field missing from the struct = a removal or rename that
//     would break deployed clients — vet error;
//   - a struct field absent from the manifest = a new field — vet error
//     until the manifest is regenerated (`enbloguevet -write-wiremanifest`)
//     and the diff is reviewed;
//   - an annotated struct missing from the manifest, or a manifest entry
//     whose struct lost its annotation — vet error.
//
// The manifest is the reviewable artifact: wire changes show up as a JSON
// diff in the same commit as the code change, and an unreviewed change
// cannot pass CI.
package wirestable

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"reflect"
	"sort"
	"strings"

	"enblogue/internal/analysis/annotation"
	"enblogue/internal/analysis/driver"
)

// Manifest maps "pkgpath.StructName" to that struct's wire fields:
// Go field name → JSON name.
type Manifest map[string]map[string]string

// ParseManifest decodes a committed wiremanifest.json.
func ParseManifest(data []byte) (Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("wiremanifest.json: %w", err)
	}
	return m, nil
}

// Encode renders a manifest as stable, diff-friendly JSON.
func (m Manifest) Encode() ([]byte, error) {
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// New returns a wirestable analyzer checking against the given committed
// manifest. The registry package owns the embedded bytes; tests inject
// purpose-built manifests.
func New(manifest Manifest) *driver.Analyzer {
	return &driver.Analyzer{
		Name:  "wirestable",
		Doc:   "diff //enblogue:wire struct JSON shapes against the committed wire manifest",
		Match: func(pkgPath string) bool { return strings.HasPrefix(pkgPath, "enblogue") },
		Run:   func(pass *driver.Pass) error { return run(pass, manifest) },
	}
}

// wireStruct is one annotated struct found in source.
type wireStruct struct {
	key    string // pkgpath.Name
	ts     *ast.TypeSpec
	fields map[string]string // Go field name → wire name
}

func run(pass *driver.Pass, manifest Manifest) error {
	found := Collect(pass)
	pkgPrefix := pass.Pkg.Path() + "."

	byKey := make(map[string]*wireStruct, len(found))
	for _, ws := range found {
		byKey[ws.key] = ws
	}

	// Manifest entries owned by this package whose struct vanished or
	// lost its annotation.
	var owned []string
	for key := range manifest {
		if strings.HasPrefix(key, pkgPrefix) && !strings.Contains(strings.TrimPrefix(key, pkgPrefix), ".") {
			owned = append(owned, key)
		}
	}
	sort.Strings(owned)
	for _, key := range owned {
		if byKey[key] == nil {
			pos := pass.Files[0].Pos()
			pass.Reportf(pos,
				"wire struct %s is in wiremanifest.json but no //enblogue:wire struct defines it: removing a wire type breaks deployed clients; if intended, regenerate the manifest with enbloguevet -write-wiremanifest and review the diff", key)
		}
	}

	for _, ws := range found {
		want, ok := manifest[ws.key]
		if !ok {
			pass.Reportf(ws.ts.Pos(),
				"wire struct %s is not in wiremanifest.json: run enbloguevet -write-wiremanifest and commit the diff", ws.key)
			continue
		}
		diffStruct(pass, ws, want)
	}
	return nil
}

func diffStruct(pass *driver.Pass, ws *wireStruct, want map[string]string) {
	var missing []string
	for goName, wireName := range want {
		got, ok := ws.fields[goName]
		if !ok {
			missing = append(missing, fmt.Sprintf("%s (json %q)", goName, wireName))
			continue
		}
		if got != wireName {
			pass.Reportf(ws.ts.Pos(),
				"wire struct %s field %s renamed on the wire: manifest says %q, source says %q: renaming breaks deployed clients; if intended, regenerate the manifest and review the diff",
				ws.key, goName, wireName, got)
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		pass.Reportf(ws.ts.Pos(),
			"wire struct %s lost field %s recorded in wiremanifest.json: removing a wire field breaks deployed clients; if intended, regenerate the manifest and review the diff",
			ws.key, m)
	}
	var added []string
	for goName, wireName := range ws.fields {
		if _, ok := want[goName]; !ok {
			added = append(added, fmt.Sprintf("%s (json %q)", goName, wireName))
		}
	}
	sort.Strings(added)
	for _, a := range added {
		pass.Reportf(ws.ts.Pos(),
			"wire struct %s gained field %s not in wiremanifest.json: run enbloguevet -write-wiremanifest and commit the diff",
			ws.key, a)
	}
}

// Collect finds every //enblogue:wire struct in the pass's package and
// derives its wire shape. Shared by the analyzer (diff mode) and the
// -write-wiremanifest regeneration path.
func Collect(pass *driver.Pass) []*wireStruct {
	var out []*wireStruct
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				if !wireAnnotated(gd, ts) {
					continue
				}
				out = append(out, &wireStruct{
					key:    pass.Pkg.Path() + "." + ts.Name.Name,
					ts:     ts,
					fields: wireFields(st),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// ManifestFor builds the manifest fragment for one package — the
// regeneration path.
func ManifestFor(pass *driver.Pass) Manifest {
	m := make(Manifest)
	for _, ws := range Collect(pass) {
		m[ws.key] = ws.fields
	}
	return m
}

// wireAnnotated accepts the annotation on the TypeSpec's own doc comment
// or, for single-spec declarations, the GenDecl's.
func wireAnnotated(gd *ast.GenDecl, ts *ast.TypeSpec) bool {
	if annotation.Has(annotation.Parse(ts.Doc), "wire") {
		return true
	}
	if len(gd.Specs) == 1 && annotation.Has(annotation.Parse(gd.Doc), "wire") {
		return true
	}
	return false
}

// wireFields derives the JSON object shape of a struct the way
// encoding/json does: exported fields only, names from the json tag,
// falling back to the Go name; `json:"-"` fields are off the wire.
func wireFields(st *ast.StructType) map[string]string {
	fields := make(map[string]string)
	for _, field := range st.Fields.List {
		tag := ""
		if field.Tag != nil {
			// field.Tag.Value includes the backquotes.
			raw := strings.Trim(field.Tag.Value, "`")
			tag = reflect.StructTag(raw).Get("json")
		}
		name, _, _ := strings.Cut(tag, ",")
		for _, id := range field.Names {
			if !id.IsExported() {
				continue
			}
			switch name {
			case "-":
				// explicitly off the wire
			case "":
				fields[id.Name] = id.Name
			default:
				fields[id.Name] = name
			}
		}
		// Embedded fields: record under the type name; encoding/json
		// inlines them, but a change to the embed is still a wire change
		// worth flagging.
		if len(field.Names) == 0 {
			if id := embeddedName(field.Type); id != "" && name != "-" {
				wire := name
				if wire == "" {
					wire = "(inline)"
				}
				fields["~embed:"+id] = wire
			}
		}
	}
	return fields
}

func embeddedName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return embeddedName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}
