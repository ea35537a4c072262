package reliability

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

const (
	lambda = 1e-5      // one failure per 100 000 hours, as in the paper
	mu24h  = 1.0 / 24  // one-day repair
	mu7d   = 1.0 / 168 // seven-day repair
)

func TestClosedFormsOrdering(t *testing.T) {
	// Paper, Figure 9: RoLo-R > RAID10 > RoLo-P > GRAID at every MTTR.
	for _, mu := range []float64{mu24h, 1.0 / 72, mu7d} {
		r := MTTDLRoLoR(lambda, mu)
		raid := MTTDLRaid10(lambda, mu)
		p := MTTDLRoLoP(lambda, mu)
		g := MTTDLGRAID(lambda, mu)
		if !(r > raid && raid > p && p > g) {
			t.Fatalf("mu=%g: ordering violated: RoLo-R=%g RAID10=%g RoLo-P=%g GRAID=%g",
				mu, r, raid, p, g)
		}
	}
}

func TestClosedFormRatios(t *testing.T) {
	// Paper: RoLo-R beats RAID10 by up to 33%; RAID10 beats RoLo-P by up
	// to 20% and GRAID by up to 33% (asymptotically in µ/λ).
	raid := MTTDLRaid10(lambda, mu24h)
	if got := MTTDLRoLoR(lambda, mu24h) / raid; math.Abs(got-4.0/3) > 0.01 {
		t.Errorf("RoLo-R/RAID10 = %.4f, want ~1.333", got)
	}
	if got := raid / MTTDLRoLoP(lambda, mu24h); math.Abs(got-1.25) > 0.01 {
		t.Errorf("RAID10/RoLo-P = %.4f, want ~1.25", got)
	}
	if got := raid / MTTDLGRAID(lambda, mu24h); math.Abs(got-1.5) > 0.01 {
		t.Errorf("RAID10/GRAID = %.4f, want ~1.5", got)
	}
	// Equation (5): RoLo-E is n=2 times RAID10.
	if got := MTTDLRoLoE(lambda, mu24h) / raid; math.Abs(got-2) > 0.01 {
		t.Errorf("RoLo-E/RAID10 = %.4f, want ~2", got)
	}
}

// TestChainsMatchClosedForms checks the Models table: each scheme's chain
// carries its name and tracks its closed form, and the closed forms are
// Equations (1)-(5), each once.
func TestChainsMatchClosedForms(t *testing.T) {
	var equations []int
	for _, m := range Models {
		equations = append(equations, m.Equation)
		t.Run(m.Scheme, func(t *testing.T) {
			for _, mu := range []float64{mu24h, 1.0 / 96, mu7d} {
				c := m.Chain(lambda, mu)
				if c.Name != m.Scheme {
					t.Fatalf("chain is named %q", c.Name)
				}
				got, err := c.MTTDL()
				if err != nil {
					t.Fatal(err)
				}
				want := m.Closed(lambda, mu)
				if rel := math.Abs(got-want) / want; rel > 0.02 {
					t.Errorf("mu=%g: chain MTTDL %.4g vs closed form %.4g (rel err %.4f)",
						mu, got, want, rel)
				}
			}
		})
	}
	slices.Sort(equations)
	if !slices.Equal(equations, []int{1, 2, 3, 4, 5}) {
		t.Errorf("models carry equations %v, want 1-5 once each", equations)
	}
}

func TestRoLoEChainExact(t *testing.T) {
	// Figure 8 is a complete diagram, so the chain must match Equation
	// (5) to numerical precision, not just asymptotically.
	for _, mu := range []float64{mu24h, mu7d, 0.5} {
		got, err := RoLoEChain(lambda, mu).MTTDL()
		if err != nil {
			t.Fatal(err)
		}
		want := MTTDLRoLoE(lambda, mu)
		if rel := math.Abs(got-want) / want; rel > 1e-9 {
			t.Fatalf("mu=%g: %.12g vs %.12g", mu, got, want)
		}
	}
}

func TestChainValidate(t *testing.T) {
	bad := []Chain{
		{},
		{Rates: [][]float64{{0}}, Absorb: []float64{1, 2}},
		{Rates: [][]float64{{1}}, Absorb: []float64{1}},                // diagonal
		{Rates: [][]float64{{0, -1}, {0, 0}}, Absorb: []float64{0, 1}}, // negative
		{Rates: [][]float64{{0, 1}}, Absorb: []float64{0}},             // ragged
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
}

func TestChainNoAbsorption(t *testing.T) {
	// A state with no outflow at all can never reach data loss.
	c := Chain{
		Rates:  [][]float64{{0, 1}, {0, 0}},
		Absorb: []float64{0, 0},
	}
	if _, err := c.MTTDL(); err == nil {
		t.Fatal("chain without absorption solved")
	}
}

func TestSingleStateChain(t *testing.T) {
	// Pure exponential absorption: MTTDL = 1/rate.
	c := Chain{Rates: [][]float64{{0}}, Absorb: []float64{0.25}}
	got, err := c.MTTDL()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-4) > 1e-12 {
		t.Fatalf("MTTDL = %g, want 4", got)
	}
}

func TestMTTDLDecreasesWithMTTR(t *testing.T) {
	// Slower repair must never increase reliability.
	prev := math.Inf(1)
	for days := 1.0; days <= 7; days++ {
		v, err := Raid10Chain(lambda, 1/(days*24)).MTTDL()
		if err != nil {
			t.Fatal(err)
		}
		if v >= prev {
			t.Fatalf("MTTDL increased from %g to %g at MTTR %g days", prev, v, days)
		}
		prev = v
	}
}

// Property: for random valid two-level chains, MTTDL is positive and
// decreases when every lethal rate is scaled up.
func TestQuickLethalMonotonicity(t *testing.T) {
	f := func(a, b, c uint8) bool {
		l := 1e-5 * (1 + float64(a%16))
		m := 1e-2 * (1 + float64(b%16))
		scale := 1 + float64(c%4)
		base := lethalChain("x", m, []float64{2 * l, l}, []float64{l, 2 * l})
		worse := lethalChain("y", m, []float64{2 * l, l}, []float64{scale * l, scale * 2 * l})
		t1, err1 := base.MTTDL()
		t2, err2 := worse.MTTDL()
		if err1 != nil || err2 != nil {
			return false
		}
		return t1 > 0 && t2 > 0 && t2 <= t1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFig9(t *testing.T) {
	days := []float64{1, 2, 3, 4, 5, 6, 7}
	series, err := Fig9(days)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("%d series, want 4", len(series))
	}
	byName := map[string][]Point{}
	for _, s := range series {
		if len(s.Points) != len(days) {
			t.Fatalf("%s: %d points", s.Scheme, len(s.Points))
		}
		byName[s.Scheme] = s.Points
	}
	// Paper's Figure 9 ordering at every MTTR.
	for i := range days {
		r, raid := byName["RoLo-R"][i].MTTDLYears, byName["RAID10"][i].MTTDLYears
		p, g := byName["RoLo-P"][i].MTTDLYears, byName["GRAID"][i].MTTDLYears
		if !(r > raid && raid > p && p > g) {
			t.Fatalf("MTTR %g d: ordering violated (%g, %g, %g, %g)", days[i], r, raid, p, g)
		}
	}
	// Spot value: RAID10 at MTTR=1 day is (3λ+µ)/4λ² ≈ 1.19e4 years.
	got := byName["RAID10"][0].MTTDLYears
	want := MTTDLRaid10(1e-5, 1.0/24) / HoursPerYear
	if math.Abs(got-want)/want > 0.02 {
		t.Fatalf("RAID10@1d = %g years, want ~%g", got, want)
	}
	if _, err := Fig9([]float64{0}); err == nil {
		t.Fatal("accepted zero MTTR")
	}
}
