//go:build race

package stream_test

// raceEnabled reports a -race build, under which sync.Pool drops a share of
// its Puts and allocation counts stop measuring the code.
const raceEnabled = true
