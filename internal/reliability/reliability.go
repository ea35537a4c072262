// Package reliability implements the paper's Section IV analysis: Mean
// Time To Data Loss for RAID10, GRAID and the three RoLo flavors, both as
// the closed-form approximations of Equations (1)-(5) and as exact
// absorbing continuous-time Markov chains solved numerically. Disk
// failures are independent exponential events of rate λ and repairs of
// rate µ, as in the paper.
package reliability

import (
	"errors"
	"fmt"
	"math"
)

// HoursPerYear converts MTTDL hours to years (the unit of Figure 9).
const HoursPerYear = 24 * 365

// Closed-form MTTDLs from the paper, in hours, for λ and µ in events/hour.

// MTTDLRaid10 is Equation (1): a four-disk (two-pair) RAID10.
func MTTDLRaid10(lambda, mu float64) float64 {
	return (3*lambda + mu) / (4 * lambda * lambda)
}

// MTTDLGRAID is Equation (2): four data disks plus one dedicated log disk.
func MTTDLGRAID(lambda, mu float64) float64 {
	return (17*lambda + 2*mu) / (12 * lambda * lambda)
}

// MTTDLRoLoP is Equation (3): four disks, one mirror on logging duty.
func MTTDLRoLoP(lambda, mu float64) float64 {
	return (10*lambda + mu) / (5 * lambda * lambda)
}

// MTTDLRoLoR is Equation (4): four disks, one pair on logging duty, three
// copies of every write.
func MTTDLRoLoR(lambda, mu float64) float64 {
	return (15*lambda + 2*mu) / (6 * lambda * lambda)
}

// MTTDLRoLoE is Equation (5): only the on-duty pair is spinning.
func MTTDLRoLoE(lambda, mu float64) float64 {
	return (3*lambda + mu) / (2 * lambda * lambda)
}

// Chain is an absorbing CTMC over transient states 0..n-1 plus an implicit
// absorbing "data loss" state. Rates[i][j] is the transition rate from
// transient state i to transient state j; Absorb[i] is the rate from state
// i into data loss.
type Chain struct {
	Name   string
	Rates  [][]float64
	Absorb []float64
}

// Validate reports structural errors.
func (c Chain) Validate() error {
	n := len(c.Rates)
	if n == 0 {
		return errors.New("reliability: empty chain")
	}
	if len(c.Absorb) != n {
		return fmt.Errorf("reliability: %d absorb rates for %d states", len(c.Absorb), n)
	}
	for i, row := range c.Rates {
		if len(row) != n {
			return fmt.Errorf("reliability: row %d has %d entries, want %d", i, len(row), n)
		}
		for j, r := range row {
			if r < 0 || (i == j && r != 0) {
				return fmt.Errorf("reliability: invalid rate [%d][%d]=%g", i, j, r)
			}
		}
		if c.Absorb[i] < 0 {
			return fmt.Errorf("reliability: negative absorb rate at %d", i)
		}
	}
	return nil
}

// MTTDL solves the chain for the expected time to absorption starting from
// state 0, by first-step analysis: for each transient state i with total
// outflow Λ_i,
//
//	Λ_i·t_i − Σ_j q_ij·t_j = 1
//
// solved by Gaussian elimination with partial pivoting.
func (c Chain) MTTDL() (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	n := len(c.Rates)
	// Build the augmented matrix [A | 1].
	a := make([][]float64, n)
	for i := 0; i < n; i++ {
		a[i] = make([]float64, n+1)
		var out float64
		for j := 0; j < n; j++ {
			out += c.Rates[i][j]
		}
		out += c.Absorb[i]
		if out <= 0 {
			return 0, fmt.Errorf("reliability: state %d has no outflow (never absorbs)", i)
		}
		for j := 0; j < n; j++ {
			a[i][j] = -c.Rates[i][j]
		}
		a[i][i] += out
		a[i][n] = 1
	}
	// Gaussian elimination with partial pivoting.
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-300 {
			return 0, fmt.Errorf("reliability: singular system at column %d (data loss unreachable from some state)", col)
		}
		a[col], a[piv] = a[piv], a[col]
		for r := 0; r < n; r++ {
			if r == col || a[r][col] == 0 {
				continue
			}
			f := a[r][col] / a[col][col]
			for k := col; k <= n; k++ {
				a[r][k] -= f * a[col][k]
			}
		}
	}
	t0 := a[0][n] / a[0][0]
	if t0 <= 0 || math.IsNaN(t0) || math.IsInf(t0, 0) {
		return 0, fmt.Errorf("reliability: non-physical MTTDL %g", t0)
	}
	return t0, nil
}

// lethalChain builds a two-level chain from a "lethal structure": the
// system starts with all disks up; disk class i fails at rate fail[i] into
// an exposed state from which lethal[i] (the combined rate of the failures
// that would lose data) absorbs, any other failure is survivable and
// folded into repair, and repair at rate mu returns to healthy. This is
// exactly the construction behind the paper's Figures 6-8: each first
// failure determines which second failures are fatal.
func lethalChain(name string, mu float64, fail, lethal []float64) Chain {
	n := 1 + len(fail)
	rates := make([][]float64, n)
	for i := range rates {
		rates[i] = make([]float64, n)
	}
	absorb := make([]float64, n)
	for i, f := range fail {
		rates[0][1+i] = f
		rates[1+i][0] = mu
		absorb[1+i] = lethal[i]
	}
	return Chain{Name: name, Rates: rates, Absorb: absorb}
}

// Raid10Chain models a two-pair RAID10 (paper's four-disk system): after
// any first failure, only the failed disk's partner is fatal.
func Raid10Chain(lambda, mu float64) Chain {
	// Four symmetric disks: first failure at 4λ, partner fatal at λ.
	return lethalChain("RAID10", mu,
		[]float64{4 * lambda},
		[]float64{lambda})
}

// GRAIDChain models four data disks plus the dedicated log disk L. Recent
// writes exist only on their primary and on L. A primary failure is
// exposed to its mirror (the repair immediately re-protects the logged
// recent writes); an L failure is exposed to both primaries until the
// mirrors are destaged; a mirror failure is exposed to its primary. This
// reconstruction matches the leading term of the paper's Equation (2).
func GRAIDChain(lambda, mu float64) Chain {
	return lethalChain("GRAID", mu,
		[]float64{
			2 * lambda, // either primary fails
			lambda,     // log disk fails
			2 * lambda, // either mirror fails
		},
		[]float64{
			lambda,     // partner mirror (classic pair loss)
			2 * lambda, // either primary (its recent writes lived on L)
			lambda,     // the mirror's primary
		})
}

// RoLoPChain models RoLo-P with M0 on duty: recent writes live on their
// primary and on M0. P0's partner and logger coincide (M0); P1 is exposed
// to M1 and M0; M0's failure is repaired by re-logging from P0 before a
// fatal P0 loss; M1 is exposed to P1.
func RoLoPChain(lambda, mu float64) Chain {
	return lethalChain("RoLo-P", mu,
		[]float64{
			lambda, // P0 fails
			lambda, // P1 fails
			lambda, // M0 (on-duty logger) fails
			lambda, // M1 fails
		},
		[]float64{
			lambda,     // M0 (mirror and logger in one)
			2 * lambda, // M1 or M0
			lambda,     // P0 (the pair whose log copies vanished)
			lambda,     // P1
		})
}

// RoLoRChain models RoLo-R with pair (P0, M0) on duty: every write has
// three copies (its primary, P0 and M0), so a single further failure is
// fatal only for classic pair loss.
func RoLoRChain(lambda, mu float64) Chain {
	return lethalChain("RoLo-R", mu,
		[]float64{
			lambda, // P0
			lambda, // P1
			lambda, // M0
			lambda, // M1
		},
		[]float64{
			lambda, // M0 — pair 0 loss (other copy of recent writes survives on M0? no: P0's partner)
			lambda, // M1 — pair 1 loss; recent pair-1 writes still on P0+M0
			lambda, // P0 after M0
			0,      // M1 alone: pair-1 data on P1, recent also on P0+M0
		})
}

// RoLoEChain is the paper's Figure 8, which it models exactly: only the
// on-duty pair is spinning (sleeping disks are assumed not to fail), so
// the system is a single mirrored pair.
func RoLoEChain(lambda, mu float64) Chain {
	return lethalChain("RoLo-E", mu,
		[]float64{2 * lambda},
		[]float64{lambda})
}

// Point is one MTTDL sample of Figure 9.
type Point struct {
	MTTRDays    float64
	MTTDLYears  float64
	ClosedYears float64 // the paper's closed-form value
}

// Series is Figure 9 data for one scheme.
type Series struct {
	Scheme string
	Points []Point
}

// A Model is one scheme's reliability model: its closed form (one of
// Equations (1)-(5)) and its exact absorbing Markov chain, both over λ and
// µ in events/hour.
type Model struct {
	Scheme   string
	Equation int // the closed form's equation number in the paper
	Closed   func(lambda, mu float64) float64
	Chain    func(lambda, mu float64) Chain
}

// Models lists every scheme's model in Figure 9's legend order, then
// RoLo-E, which Figure 9 does not plot.
var Models = []Model{
	{"RoLo-R", 4, MTTDLRoLoR, RoLoRChain},
	{"RAID10", 1, MTTDLRaid10, Raid10Chain},
	{"RoLo-P", 3, MTTDLRoLoP, RoLoPChain},
	{"GRAID", 2, MTTDLGRAID, GRAIDChain},
	{"RoLo-E", 5, MTTDLRoLoE, RoLoEChain},
}

// Fig9 computes MTTDL (years) as a function of MTTR (days) for the four
// schemes plotted in the paper's Figure 9, at the paper's λ of one failure
// per 100 000 hours.
func Fig9(mttrDays []float64) ([]Series, error) {
	const lambda = 1e-5
	plotted := Models[:4] // all but RoLo-E, the last model
	out := make([]Series, 0, len(plotted))
	for _, m := range plotted {
		ser := Series{Scheme: m.Scheme}
		for _, days := range mttrDays {
			if days <= 0 {
				return nil, fmt.Errorf("reliability: non-positive MTTR %g days", days)
			}
			mu := 1 / (days * 24)
			t, err := m.Chain(lambda, mu).MTTDL()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", m.Scheme, err)
			}
			ser.Points = append(ser.Points, Point{
				MTTRDays:    days,
				MTTDLYears:  t / HoursPerYear,
				ClosedYears: m.Closed(lambda, mu) / HoursPerYear,
			})
		}
		out = append(out, ser)
	}
	return out, nil
}
