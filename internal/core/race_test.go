//go:build race

package core

// raceEnabled reports a -race build, whose sync.Pool drops some of the
// buffers put back.
const raceEnabled = true
