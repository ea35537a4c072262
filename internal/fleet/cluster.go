package fleet

import (
	"fmt"
	"io"
	"math"

	"github.com/rolo-storage/rolo"
	"github.com/rolo-storage/rolo/internal/telemetry"
)

// Cluster folds per-shard reports into cluster-wide statistics. Folding
// is associative only in shard-index order — the worst-K digest breaks
// ties by index — so the runner always feeds shards in order. The
// accumulator is constant-memory: merged histograms grow once to the
// widest shard's bucket span, the worst-K digest is a fixed-capacity
// insertion sort, and a steady-state Fold performs no allocations.
type Cluster struct {
	shards int

	all   telemetry.Histogram // merged response-time histogram, all classes
	read  telemetry.Histogram
	write telemetry.Histogram

	// Cross-shard distributions: one observation per shard, so fleet-level
	// percentiles ("p95 shard energy") come from the same exact log-bucket
	// machinery as latency.
	energy telemetry.Histogram // whole joules per shard
	spins  telemetry.Histogram // spin cycles per shard

	requests     int64
	energyJ      float64
	spinCycles   int64
	rotations    int64
	destages     int64
	directWrites int64

	perScheme [len(schemeNames)]schemeAgg

	worst  []ShardDigest // sorted worst-first, fixed capacity
	worstK int
}

// schemeAgg aggregates the shards running one scheme.
type schemeAgg struct {
	shards   int
	requests int64
	energyJ  float64
	lat      telemetry.Histogram
}

// schemeNames indexes scheme ints (0 unused) for the fixed per-scheme
// array; sized by the highest scheme constant.
var schemeNames = [int(rolo.SchemeRoLoE) + 1]string{}

func init() {
	for _, s := range rolo.Schemes {
		schemeNames[int(s)] = s.String()
	}
}

// ShardDigest identifies one shard in the worst-K table.
type ShardDigest struct {
	Shard    int         `json:"shard"`
	Scheme   rolo.Scheme `json:"scheme"`
	P99Ms    float64     `json:"p99_ms"`
	MeanMs   float64     `json:"mean_ms"`
	Requests int64       `json:"requests"`
	EnergyJ  float64     `json:"energy_j"`
}

// NewCluster returns an accumulator for a fleet of the given worst-K
// digest size.
func NewCluster(worstK int) *Cluster {
	if worstK < 1 {
		worstK = 1
	}
	return &Cluster{worstK: worstK, worst: make([]ShardDigest, 0, worstK)}
}

// Fold merges shard i's report. Shards must be folded in increasing
// index order; the report is read-only.
func (c *Cluster) Fold(shard int, rep *rolo.Report) {
	c.shards++
	c.all.Merge(&rep.AllHist)
	c.read.Merge(&rep.ReadHist)
	c.write.Merge(&rep.WriteHist)
	c.energy.Observe(int64(math.Round(rep.EnergyJ)))
	c.spins.Observe(int64(rep.SpinCycles))

	c.requests += rep.Requests
	c.energyJ += rep.EnergyJ
	c.spinCycles += int64(rep.SpinCycles)
	c.rotations += int64(rep.Rotations)
	c.destages += int64(rep.Destages)
	c.directWrites += rep.DirectWrites

	agg := &c.perScheme[int(rep.Scheme)]
	agg.shards++
	agg.requests += rep.Requests
	agg.energyJ += rep.EnergyJ
	agg.lat.Merge(&rep.AllHist)

	c.foldWorst(ShardDigest{
		Shard:    shard,
		Scheme:   rep.Scheme,
		P99Ms:    rep.P99ResponseMs,
		MeanMs:   rep.MeanResponseMs,
		Requests: rep.Requests,
		EnergyJ:  rep.EnergyJ,
	})
}

// foldWorst inserts the digest into the fixed-capacity worst-K table,
// ordered by descending P99 with lower shard index breaking ties (the
// tie-break keeps the table independent of fold concurrency upstream).
func (c *Cluster) foldWorst(d ShardDigest) {
	pos := len(c.worst)
	for pos > 0 {
		w := c.worst[pos-1]
		if w.P99Ms > d.P99Ms || (w.P99Ms == d.P99Ms && w.Shard < d.Shard) {
			break
		}
		pos--
	}
	if pos >= c.worstK {
		return
	}
	if len(c.worst) < c.worstK {
		c.worst = c.worst[:len(c.worst)+1]
	}
	copy(c.worst[pos+1:], c.worst[pos:])
	c.worst[pos] = d
}

// ClusterReport is the deterministic cluster summary.
type ClusterReport struct {
	Shards   int   `json:"shards"`
	Requests int64 `json:"requests"`

	MeanResponseMs float64 `json:"mean_response_ms"`
	P95ResponseMs  float64 `json:"p95_response_ms"`
	P99ResponseMs  float64 `json:"p99_response_ms"`
	MaxResponseMs  float64 `json:"max_response_ms"`

	ReadMeanMs  float64 `json:"read_mean_ms"`
	ReadP99Ms   float64 `json:"read_p99_ms"`
	WriteMeanMs float64 `json:"write_mean_ms"`
	WriteP99Ms  float64 `json:"write_p99_ms"`

	EnergyJ        float64 `json:"energy_j"`
	ShardEnergyP50 float64 `json:"shard_energy_p50_j"`
	ShardEnergyP95 float64 `json:"shard_energy_p95_j"`
	ShardEnergyMax float64 `json:"shard_energy_max_j"`

	SpinCycles    int64 `json:"spin_cycles"`
	ShardSpinsP50 int64 `json:"shard_spins_p50"`
	ShardSpinsP95 int64 `json:"shard_spins_p95"`
	ShardSpinsMax int64 `json:"shard_spins_max"`

	Rotations    int64 `json:"rotations"`
	Destages     int64 `json:"destages"`
	DirectWrites int64 `json:"direct_writes"`

	Schemes []SchemeSummary `json:"schemes"`
	Worst   []ShardDigest   `json:"worst_shards"`
}

// SchemeSummary aggregates every shard that ran one scheme.
type SchemeSummary struct {
	Scheme   string  `json:"scheme"`
	Shards   int     `json:"shards"`
	Requests int64   `json:"requests"`
	MeanMs   float64 `json:"mean_ms"`
	P99Ms    float64 `json:"p99_ms"`
	EnergyJ  float64 `json:"energy_j"`
}

// Report freezes the accumulator into a ClusterReport.
func (c *Cluster) Report() ClusterReport {
	r := ClusterReport{
		Shards:   c.shards,
		Requests: c.requests,

		MeanResponseMs: meanMs(&c.all),
		P95ResponseMs:  quantMs(&c.all, 95),
		P99ResponseMs:  quantMs(&c.all, 99),
		MaxResponseMs:  float64(c.all.Max()) / 1000,

		ReadMeanMs:  meanMs(&c.read),
		ReadP99Ms:   quantMs(&c.read, 99),
		WriteMeanMs: meanMs(&c.write),
		WriteP99Ms:  quantMs(&c.write, 99),

		EnergyJ:        c.energyJ,
		ShardEnergyP50: float64(c.energy.Quantile(50)),
		ShardEnergyP95: float64(c.energy.Quantile(95)),
		ShardEnergyMax: float64(c.energy.Max()),

		SpinCycles:    c.spinCycles,
		ShardSpinsP50: c.spins.Quantile(50),
		ShardSpinsP95: c.spins.Quantile(95),
		ShardSpinsMax: c.spins.Max(),

		Rotations:    c.rotations,
		Destages:     c.destages,
		DirectWrites: c.directWrites,

		Worst: append([]ShardDigest(nil), c.worst...),
	}
	for i := range c.perScheme {
		agg := &c.perScheme[i]
		if agg.shards == 0 {
			continue
		}
		r.Schemes = append(r.Schemes, SchemeSummary{
			Scheme:   schemeNames[i],
			Shards:   agg.shards,
			Requests: agg.requests,
			MeanMs:   meanMs(&agg.lat),
			P99Ms:    quantMs(&agg.lat, 99),
			EnergyJ:  agg.energyJ,
		})
	}
	return r
}

func meanMs(h *telemetry.Histogram) float64 {
	if h.Total() == 0 {
		return 0
	}
	return h.Sum() / float64(h.Total()) / 1000
}

func quantMs(h *telemetry.Histogram, p float64) float64 {
	return float64(h.Quantile(p)) / 1000
}

// WriteText renders the report as the canonical fixed-format text table.
// Every run of the same spec produces these exact bytes regardless of
// job count — the CI fleet-smoke stage hashes this output.
func (r *ClusterReport) WriteText(w io.Writer) error {
	p := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	if err := p("fleet: %d shards, %d requests\n", r.Shards, r.Requests); err != nil {
		return err
	}
	if err := p("latency  mean %.3f ms  p95 %.3f ms  p99 %.3f ms  max %.3f ms\n",
		r.MeanResponseMs, r.P95ResponseMs, r.P99ResponseMs, r.MaxResponseMs); err != nil {
		return err
	}
	if err := p("reads    mean %.3f ms  p99 %.3f ms\nwrites   mean %.3f ms  p99 %.3f ms\n",
		r.ReadMeanMs, r.ReadP99Ms, r.WriteMeanMs, r.WriteP99Ms); err != nil {
		return err
	}
	if err := p("energy   total %.1f J  per-shard p50 %.0f J  p95 %.0f J  max %.0f J\n",
		r.EnergyJ, r.ShardEnergyP50, r.ShardEnergyP95, r.ShardEnergyMax); err != nil {
		return err
	}
	if err := p("spins    total %d  per-shard p50 %d  p95 %d  max %d\n",
		r.SpinCycles, r.ShardSpinsP50, r.ShardSpinsP95, r.ShardSpinsMax); err != nil {
		return err
	}
	if err := p("events   rotations %d  destages %d  direct writes %d\n",
		r.Rotations, r.Destages, r.DirectWrites); err != nil {
		return err
	}
	if len(r.Schemes) > 0 {
		if err := p("\n%-8s %7s %10s %10s %10s %12s\n",
			"scheme", "shards", "requests", "mean ms", "p99 ms", "energy J"); err != nil {
			return err
		}
		for _, s := range r.Schemes {
			if err := p("%-8s %7d %10d %10.3f %10.3f %12.1f\n",
				s.Scheme, s.Shards, s.Requests, s.MeanMs, s.P99Ms, s.EnergyJ); err != nil {
				return err
			}
		}
	}
	if len(r.Worst) > 0 {
		if err := p("\nworst shards by p99:\n%-8s %-8s %10s %10s %10s %12s\n",
			"shard", "scheme", "p99 ms", "mean ms", "requests", "energy J"); err != nil {
			return err
		}
		for _, d := range r.Worst {
			if err := p("%-8d %-8s %10.3f %10.3f %10d %12.1f\n",
				d.Shard, d.Scheme, d.P99Ms, d.MeanMs, d.Requests, d.EnergyJ); err != nil {
				return err
			}
		}
	}
	return nil
}
