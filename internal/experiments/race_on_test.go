//go:build race

package experiments

// raceDetector reports a -race build. TestExecTimeValidation's seed
// sweep runs the timed engine on one goroutine, so the detector has
// nothing to check there and only multiplies its run time; `make ci`
// runs it without.
const raceDetector = true
