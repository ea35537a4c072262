// Command rololint is the repository's static-analysis gate: a
// multichecker for the ten analyzers under internal/analysis that enforce
// this repository's declared contracts — simulation determinism
// (simdeterminism), telemetry discipline (telemetryguard), sim-time
// hygiene (simtimeunits), error propagation (errpropagation), resource
// Close obligations (resourcelifecycle), phase-log pairing
// (phasepairing), power-state-machine legality (statetransition), the
// sanitizer's audited-mutation-helper discipline (invariantguard), and
// the mutex discipline of the three concurrent harness components —
// mutex-guarded field access (guardedby) and interprocedural lock
// contracts (lockcontract). An eleventh entry, the lintallow meta-check,
// audits the waivers themselves: a //lint:allow that suppresses nothing,
// lacks a reason, or names an unknown analyzer is a finding.
//
// It loads packages itself, via `go list -deps -export`, so the gate — the
// one scripts/check.sh and CI run — is:
//
//	go build -o bin/rololint ./cmd/rololint
//	./bin/rololint ./...
//
// Only non-test files are analyzed, and packages under testdata are
// skipped. Interprocedural facts (lock contracts, resource dispositions,
// resource-type annotations) flow in memory from each package to its
// importers, dependencies first.
//
//	rololint -fix ./...            # apply suggested fixes in place
//	rololint -fix -diff ./...      # dry run: print unified diffs instead
//
// -fix applies each finding's first suggested fix, leaves the files
// gofmt-clean, and is idempotent (an applied fix never reproduces its
// diagnostic); CI verifies that property. When two findings' fixes
// overlap, the earlier one is applied and the skipped fix is reported —
// rerunning -fix picks it up. -fix -diff applies nothing and prints the
// unified diff of what -fix would change.
//
// Naming analyzers runs only those; naming none runs the full suite:
//
//	rololint -simdeterminism ./...
//
// Findings are suppressed by a `//lint:allow <analyzer>:<category>
// <reason>` comment on the offending line or the line above; the reason
// is mandatory, and the scoping means one directive cannot blanket-
// silence an analyzer's other checks on the same line.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/rolo-storage/rolo/internal/analysis"
	"github.com/rolo-storage/rolo/internal/analysis/errpropagation"
	"github.com/rolo-storage/rolo/internal/analysis/invariantguard"
	"github.com/rolo-storage/rolo/internal/analysis/phasepairing"
	"github.com/rolo-storage/rolo/internal/analysis/raceguard"
	"github.com/rolo-storage/rolo/internal/analysis/resourcelifecycle"
	"github.com/rolo-storage/rolo/internal/analysis/simdeterminism"
	"github.com/rolo-storage/rolo/internal/analysis/simtimeunits"
	"github.com/rolo-storage/rolo/internal/analysis/statetransition"
	"github.com/rolo-storage/rolo/internal/analysis/telemetryguard"
)

// suite lists every analyzer in the gate, in reporting order.
var suite = []*analysis.Analyzer{
	simdeterminism.Analyzer,
	telemetryguard.Analyzer,
	simtimeunits.Analyzer,
	errpropagation.Analyzer,
	resourcelifecycle.Analyzer,
	phasepairing.Analyzer,
	statetransition.Analyzer,
	invariantguard.Analyzer,
	raceguard.GuardedBy,
	raceguard.LockContract,
	analysis.LintAllow,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("rololint", flag.ExitOnError)
	fixFlag := fs.Bool("fix", false, "apply suggested fixes in place")
	diffFlag := fs.Bool("diff", false, "with -fix: apply nothing, print unified diffs of what -fix would change")
	enabled := make(map[string]*bool, len(suite))
	for _, a := range suite {
		enabled[a.Name] = fs.Bool(a.Name, false,
			"enable only the named analyzers ("+firstLine(a.Doc)+")")
	}
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: rololint [flags] package pattern...\n\nanalyzers:\n")
		for _, a := range suite {
			fmt.Fprintf(fs.Output(), "  %-16s %s\n", a.Name, firstLine(a.Doc))
		}
		fmt.Fprintf(fs.Output(), "\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var selected []*analysis.Analyzer
	for _, a := range suite {
		if *enabled[a.Name] {
			selected = append(selected, a)
		}
	}
	if len(selected) == 0 {
		selected = suite
	}

	if *diffFlag && !*fixFlag {
		fmt.Fprintln(os.Stderr, "rololint: -diff only modifies -fix; run `rololint -fix -diff ./...`")
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	opts := analysis.StandaloneOptions{Fix: *fixFlag, Diff: *diffFlag}
	return analysis.RunStandalone(fs.Args(), selected, os.Stderr, opts)
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
