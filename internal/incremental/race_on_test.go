//go:build race

package incremental

// raceEnabled reports a -race build, whose instrumentation allocates on
// its own, so allocation counts stop measuring the code.
const raceEnabled = true
