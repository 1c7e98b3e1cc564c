//go:build race

package ddi

// raceEnabled reports a -race build, whose sync.Pool drops some puts, so
// that allocation counts read higher.
const raceEnabled = true
