package lof

import "lof/internal/obs"

// RunStats is the observability record of a traced run: per-phase timings
// in pipeline order followed by pipeline counters. Obtain it from
// Result.Stats or Model.Stats after fitting with Config.Trace set; its
// WriteTable method renders the table behind lofcli -stats, and its JSON
// form is the "stats" object of lofcli -json.
type RunStats = obs.RunStats

// PhaseStat reports the aggregated timings of one pipeline phase; see
// obs.PhaseStat for the phase names and the nested (busy-time) convention.
type PhaseStat = obs.PhaseStat

// CounterStat reports one pipeline counter.
type CounterStat = obs.CounterStat
