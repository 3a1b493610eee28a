//go:build !race

package synth

// raceEnabled reports a race-detector build, under which TestGenerateGolden
// pins its smallest geometry only.
const raceEnabled = false
