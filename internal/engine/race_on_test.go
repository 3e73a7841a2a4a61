//go:build race

package engine

// raceEnabled gates assertions the race detector's instrumentation skews.
const raceEnabled = true
