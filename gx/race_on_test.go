//go:build race

package gx

// raceEnabled gates assertions the race detector's instrumentation skews.
const raceEnabled = true
