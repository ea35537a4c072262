package experiments

import (
	"bytes"
	"strings"
	"testing"

	"github.com/rolo-storage/rolo"
	"github.com/rolo-storage/rolo/internal/telemetry/journal"
)

func tinyOptions() Options {
	return Options{Scale: 0.01, Pairs: 4}
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("default options rejected: %v", err)
	}
	bad := []Options{
		{Scale: 0, Pairs: 4},
		{Scale: 1.5, Pairs: 4},
		{Scale: 0.1, Pairs: 1},
		// Journal options without a directory to journal into.
		{Scale: 0.1, Pairs: 4, Journal: journal.RotateConfig{SegmentBytes: 65536}},
		{Scale: 0.1, Pairs: 4, Journal: journal.RotateConfig{Compress: true}},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, o)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the evaluation must be regenerable.
	want := []string{
		"eqs", "fig2", "fig3", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig14", "table1", "table4", "table5", "stripe", "disksize", "recovery",
	}
	for _, id := range want {
		if _, err := Lookup(id); err != nil {
			t.Errorf("missing experiment %q: %v", id, err)
		}
	}
	if len(All()) < len(want) {
		t.Errorf("registry has %d experiments, want >= %d", len(All()), len(want))
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestFig9RunsAndOrders(t *testing.T) {
	var buf bytes.Buffer
	e, err := Lookup("fig9")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(tinyOptions(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, scheme := range []string{"RoLo-R", "RAID10", "RoLo-P", "GRAID"} {
		if !strings.Contains(out, scheme) {
			t.Errorf("fig9 output missing %s:\n%s", scheme, out)
		}
	}
}

func TestEqsAgree(t *testing.T) {
	var buf bytes.Buffer
	e, err := Lookup("eqs")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(tinyOptions(), &buf); err != nil {
		t.Fatal(err)
	}
	// Every ratio row must be close to 1 (chain vs closed form).
	for _, line := range strings.Split(buf.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 5 || fields[0] == "scheme" {
			continue
		}
		ratio := fields[4]
		if !strings.HasPrefix(ratio, "0.9") && !strings.HasPrefix(ratio, "1.0") {
			t.Errorf("chain/closed ratio %s out of line: %s", ratio, line)
		}
	}
}

// TestMainExperimentsShape runs the heart of the evaluation at miniature
// scale and asserts the paper's qualitative conclusions hold.
func TestMainExperimentsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	// Shape assertions need enough mirrors for the 10x spin contrast and
	// loggers big enough to amortize spin-ups; 0.02-scale, 20-disk runs
	// keep the test under a minute.
	o := Options{Scale: 0.02, Pairs: 10}
	res, err := gridResults(o, mainTraces)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range mainTraces {
		byScheme := res[tr]
		var raid, graid, p, rr, e float64
		var raidSpin, graidSpin, pSpin, eSpin int
		for s, rep := range byScheme {
			switch s.String() {
			case "RAID10":
				raid, raidSpin = rep.EnergyJ, rep.SpinCycles
			case "GRAID":
				graid, graidSpin = rep.EnergyJ, rep.SpinCycles
			case "RoLo-P":
				p, pSpin = rep.EnergyJ, rep.SpinCycles
			case "RoLo-R":
				rr = rep.EnergyJ
			case "RoLo-E":
				e, eSpin = rep.EnergyJ, rep.SpinCycles
			}
		}
		// Energy ordering: RoLo-E < RoLo-P <= GRAID < RAID10 (paper Fig
		// 10a; the P/GRAID gap is small, so allow a whisker).
		if !(e < p && p <= graid*1.05 && graid < raid) {
			t.Errorf("%s: energy ordering violated: E=%.0f P=%.0f R=%.0f G=%.0f RAID=%.0f",
				tr, e, p, rr, graid, raid)
		}
		// RoLo-E must save well over half of RAID10's energy.
		if e/raid > 0.5 {
			t.Errorf("%s: RoLo-E saves only %.1f%%", tr, 100*(1-e/raid))
		}
		// Spin counts: RAID10 never spins; RoLo-P spins far less than
		// GRAID; RoLo-E spins the most (paper Table I).
		if raidSpin != 0 {
			t.Errorf("%s: RAID10 spun %d times", tr, raidSpin)
		}
		if pSpin*3 > graidSpin {
			t.Errorf("%s: RoLo-P spins %d vs GRAID %d — expected ~10x fewer", tr, pSpin, graidSpin)
		}
		if eSpin <= graidSpin {
			t.Errorf("%s: RoLo-E spins %d vs GRAID %d — expected more", tr, eSpin, graidSpin)
		}
	}
}

func TestTableWriter(t *testing.T) {
	var buf bytes.Buffer
	tab := &table{header: []string{"a", "bb", "ccc"}}
	tab.add("1", "2", "3")
	tab.add("longer", "x", "y")
	if err := tab.write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("wrote %d lines, want 3", len(lines))
	}
	if !strings.HasPrefix(lines[1], "1") || !strings.Contains(lines[1], "3") {
		t.Errorf("row mangled: %q", lines[1])
	}
}

func TestScaledConfigAlignment(t *testing.T) {
	for _, scale := range []float64{0.01, 0.05, 0.37, 1} {
		o := Options{Scale: scale, Pairs: 4}
		l, err := profileLeaf(o, rolo.SchemeRAID10, "src2_2", 8, 64<<10)
		if err != nil {
			t.Fatalf("scale %g: %v", scale, err)
		}
		cfg := l.cfg
		if err := cfg.Validate(); err != nil {
			t.Errorf("scale %g: %v", scale, err)
		}
		if cfg.Disk.CapacityBytes%(1<<20) != 0 {
			t.Errorf("scale %g: unaligned capacity %d", scale, cfg.Disk.CapacityBytes)
		}
	}
}
