// Package deadgood is deadsurface's clean fixture module: every
// declaration in its internal/ package is used by non-test code, exempt,
// or waived with a reason, so the module produces no diagnostics.
package deadgood

import "deadgood/internal/lib"

// Engine re-exports lib.Engine: the alias makes its whole method set
// public API, called or not.
type Engine = lib.Engine

// Smallest is the root API the internal package serves.
func Smallest(xs []int) (int, lib.Level) { return lib.Smallest(xs), lib.Warn }
