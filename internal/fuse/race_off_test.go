//go:build !race

package fuse

// raceEnabled reports a -race build, whose scheduler randomizes run-queue
// order.
const raceEnabled = false
