//go:build race

package core

// raceEnabled skips TestKWayRunMemoryCeiling: under the race detector
// sync.Pool drops a random share of what is put back, so a warm run may
// build its pooled memory again and the ceiling says nothing.
const raceEnabled = true
