//go:build race

package engine

// raceDetector reports a -race build. The 100k equivalence sweep runs
// every engine on one goroutine, so the detector has nothing to check
// there and only multiplies its run time; `make ci` runs it without.
const raceDetector = true
