// Package deadbad is deadsurface's violating fixture module: each
// diagnostic is pinned by a want marker in internal/lib.
package deadbad

import "deadbad/internal/lib"

// Run is the module's product code.
func Run() int { return lib.Used() }
