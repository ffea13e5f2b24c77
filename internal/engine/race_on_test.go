//go:build race

package engine

// raceDetector reports a -race build. The 10k and 100k equivalence
// sweeps, the residual bound and the threshold-schedule ablation run
// their engines on one goroutine, so the detector has nothing to check
// there and only multiplies their run time; `make ci` runs them without.
const raceDetector = true
