//go:build race

package p2p

// raceDetector reports a -race build. The retry-queue model test runs
// on one goroutine, so the detector has nothing to check there and only
// multiplies its run time; `make ci` runs it without.
const raceDetector = true
