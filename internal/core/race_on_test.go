//go:build race

package core

// raceDetector reports a -race build. The refused-checkpoint sweep
// restores at every cut byte on one goroutine, so the detector has
// nothing to check there and only multiplies its run time; `make ci`
// runs it without.
const raceDetector = true
