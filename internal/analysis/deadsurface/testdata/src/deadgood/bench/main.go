// Command bench is a use-only root: its uses of the module count, and no
// diagnostic is reported in it.
package main

import "deadgood/internal/lib"

// unused is never called, but bench is not checked for dead surface.
func unused() {}

func main() { println(lib.BenchOnly()) }
