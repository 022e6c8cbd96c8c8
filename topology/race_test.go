//go:build race

package topology

// raceEnabled reports a race-detector build, whose sync.Pool drops items
// at random and so makes pooled paths allocate.
const raceEnabled = true
