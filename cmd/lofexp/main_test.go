package main

import (
	"strings"
	"testing"

	"lof/internal/obs"
)

// Every registered experiment must run in quick mode and produce at least
// one non-empty table — the smoke test behind `lofexp -exp all -quick`.
func TestAllExperimentsQuick(t *testing.T) {
	for _, e := range experiments() {
		e := e
		t.Run(e.name, func(t *testing.T) {
			tables, err := e.run(42, true)
			if err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.name)
			}
			for ti, tab := range tables {
				if len(tab.Rows) == 0 {
					t.Fatalf("%s table %d is empty", e.name, ti)
				}
			}
		})
	}
}

func TestExperimentNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments() {
		if seen[e.name] {
			t.Fatalf("duplicate experiment name %q", e.name)
		}
		seen[e.name] = true
		if e.desc == "" {
			t.Fatalf("experiment %q lacks a description", e.name)
		}
	}
}

// TestRunExperimentStats pins the -stats path: a pipeline-running
// experiment yields a snapshot with phases, and the process-default tracer
// is cleared afterwards.
func TestRunExperimentStats(t *testing.T) {
	var target experiment
	for _, e := range experiments() {
		if e.name == "fig7" {
			target = e
		}
	}
	tables, snap, err := runExperiment(target, 42, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 {
		t.Fatal("no tables")
	}
	if snap == nil || len(snap.Phases) == 0 {
		t.Fatalf("stats run produced no phases: %+v", snap)
	}
	found := false
	for _, p := range snap.Phases {
		if p.Name == obs.PhaseMaterialize {
			found = true
		}
	}
	if !found {
		t.Fatalf("materialize phase missing from %+v", snap.Phases)
	}
	if obs.Default() != nil {
		t.Fatal("default tracer not cleared after traced experiment")
	}

	var buf strings.Builder
	if err := snap.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "materialize") || !strings.Contains(buf.String(), "PHASE") {
		t.Fatalf("printed stats missing content:\n%s", buf.String())
	}

	// Without -stats no snapshot is produced.
	_, snap, err = runExperiment(target, 42, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil {
		t.Fatal("untraced experiment produced a snapshot")
	}
}
