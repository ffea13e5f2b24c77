//go:build race

package lint

// raceDetector reports a -race build. dprlint is static analysis and
// starts no goroutines, so the detector has nothing to find here and
// only multiplies the run time of every test that type-checks source;
// `make ci` runs the package without it.
const raceDetector = true
