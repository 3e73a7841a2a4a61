//go:build !race

package gx

const raceEnabled = false
