//go:build !race

package codec

// raceEnabled reports a race-detector build, under which sync.Pool drops a
// quarter of what it is handed.
const raceEnabled = false
