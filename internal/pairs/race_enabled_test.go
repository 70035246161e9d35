//go:build race

package pairs

// raceEnabled reports that this test binary was built with -race, which
// instruments allocations and bypasses sync.Pool caching — allocation
// counts are not meaningful there.
const raceEnabled = true
