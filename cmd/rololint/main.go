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
// It takes package patterns and no flags, always runs the full suite, and
// loads packages itself, via `go list -deps -export`, so the gate — the
// one scripts/check.sh and CI run — is:
//
//	go build -o bin/rololint ./cmd/rololint
//	./bin/rololint ./...
//
// With no pattern it prints its usage and the analyzer list. Only
// non-test files are analyzed, and packages under testdata are skipped.
// Interprocedural facts (lock contracts, resource dispositions,
// resource-type annotations) flow in memory from each package to its
// importers, dependencies first. Each finding's message names its
// remedy.
//
// Findings are suppressed by a `//lint:allow <analyzer>:<category>
// <reason>` comment on the offending line or the line above; the reason
// is mandatory, and the scoping means one directive cannot blanket-
// silence an analyzer's other checks on the same line.
package main

import (
	"flag"
	"fmt"
	"io"
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
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run lints the packages matching args and returns the exit code: 0 when
// clean, 1 on a driver error, 2 on findings or on a usage error.
func run(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("rololint", flag.ContinueOnError)
	fs.SetOutput(w)
	fs.Usage = func() {
		fmt.Fprintf(w, "usage: rololint package pattern...\n\nanalyzers:\n")
		for _, a := range suite {
			fmt.Fprintf(w, "  %-16s %s\n", a.Name, firstLine(a.Doc))
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	return analysis.RunStandalone(fs.Args(), suite, w)
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
