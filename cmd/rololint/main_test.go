package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUsageListsEverySuiteAnalyzer runs rololint with no pattern: it must
// exit 2 and print the usage, whose `analyzers:` block (the one
// scripts/bench.sh counts) names the whole suite, one analyzer per
// indented line, up to the first blank line.
func TestUsageListsEverySuiteAnalyzer(t *testing.T) {
	var out bytes.Buffer
	if code := run(nil, &out); code != 2 {
		t.Fatalf("run(nil) = %d, want 2", code)
	}
	want := []string{
		"simdeterminism", "telemetryguard", "simtimeunits", "errpropagation",
		"resourcelifecycle", "phasepairing", "statetransition", "invariantguard",
		"guardedby", "lockcontract", "lintallow",
	}
	var got []string
	inBlock := false
	for _, line := range strings.Split(out.String(), "\n") {
		switch {
		case line == "analyzers:":
			inBlock = true
		case !inBlock:
		case line == "":
			inBlock = false
		case strings.HasPrefix(line, "  "):
			got = append(got, strings.Fields(line)[0])
		}
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("analyzers block lists %v, want %v; usage:\n%s", got, want, out.String())
	}
}

// TestRefusesFlags checks that rololint takes no flags: the retired
// -fix, -diff and per-analyzer selection flags exit 2 as undefined,
// before any package is loaded.
func TestRefusesFlags(t *testing.T) {
	for _, flag := range []string{"-fix", "-diff", "-simdeterminism"} {
		var out bytes.Buffer
		if code := run([]string{flag, "./..."}, &out); code != 2 {
			t.Errorf("rololint %s ./... = %d, want 2", flag, code)
		}
		if !strings.Contains(out.String(), "flag provided but not defined: "+flag) {
			t.Errorf("rololint %s ./... printed:\n%s\nwant the undefined-flag error", flag, out.String())
		}
	}
}
