//go:build race

package wire

// raceDetector reports a -race build, where sync.Pool drops a quarter of
// what it is given and an allocation gate on pooled scratch means nothing.
const raceDetector = true
