//go:build !race

package p2p

const raceDetector = false
