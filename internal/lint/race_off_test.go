//go:build !race

package lint

const raceDetector = false
