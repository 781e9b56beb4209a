//go:build race

package sim

// raceEnabled reports a -race build, whose runtime allocates on its own
// and so moves allocation counts.
const raceEnabled = true
