//go:build race

package lof

// raceEnabled reports a -race build, under which sync.Pool drops a share of
// its Puts and allocation counts stop measuring the code.
const raceEnabled = true
