package array

import (
	"fmt"

	"github.com/rolo-storage/rolo/internal/cache"
	"github.com/rolo-storage/rolo/internal/metrics"
	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/telemetry"
	"github.com/rolo-storage/rolo/internal/trace"
)

// CachedController layers a controller-level RAM block cache in front of
// any scheme, modeling the multi-level storage caches the paper assumes
// absorb most reads before they reach the disks. Reads whose blocks are
// all resident complete at RAM latency without touching the inner
// controller; writes populate the cache (write-through) and always pass
// down, since data must still reach the disks for durability.
type CachedController struct {
	inner      Controller
	resp       *metrics.ResponseStats
	eng        *sim.Engine
	lru        *cache.LRU
	blockBytes int64
	hitLatency sim.Time
	tel        *telemetry.Recorder

	hits, misses int64
}

var (
	_ Controller             = (*CachedController)(nil)
	_ telemetry.Instrumented = (*CachedController)(nil)
)

// WithRAMCache wraps inner with a RAM cache of blocks entries of
// blockBytes each. resp must be the inner controller's response collector
// so cache hits appear in the same statistics.
func WithRAMCache(inner Controller, resp *metrics.ResponseStats, eng *sim.Engine,
	blocks int, blockBytes int64) (*CachedController, error) {
	if inner == nil || resp == nil || eng == nil {
		return nil, fmt.Errorf("array: nil dependency for RAM cache")
	}
	if blockBytes <= 0 {
		return nil, fmt.Errorf("array: non-positive cache block size %d", blockBytes)
	}
	lru, err := cache.NewLRU(blocks)
	if err != nil {
		return nil, err
	}
	return &CachedController{
		inner:      inner,
		resp:       resp,
		eng:        eng,
		lru:        lru,
		blockBytes: blockBytes,
		hitLatency: 100 * sim.Microsecond,
	}, nil
}

// SetTelemetry implements telemetry.Instrumented: the recorder is used
// for the RAM cache's own hit/miss and request events; it is also passed
// through to the inner controller if that is instrumented.
func (c *CachedController) SetTelemetry(rec *telemetry.Recorder) {
	c.tel = rec
	if in, ok := c.inner.(telemetry.Instrumented); ok {
		in.SetTelemetry(rec)
	}
}

// HitRate returns the RAM cache hit rate over reads.
func (c *CachedController) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// Submit implements Controller.
func (c *CachedController) Submit(rec trace.Record) error {
	first := rec.Offset / c.blockBytes
	last := (rec.End() - 1) / c.blockBytes
	if rec.Op == trace.Write {
		for b := first; b <= last; b++ {
			c.lru.Put(b)
		}
		return c.inner.Submit(rec)
	}
	all := true
	for b := first; b <= last; b++ {
		if !c.lru.Get(b) {
			all = false
		}
	}
	if all {
		c.hits++
		if c.tel != nil {
			c.tel.CacheHit(rec.At, -1, rec.Size)
		}
		// The inner controller never sees a RAM hit, so the cache
		// completes the request itself.
		arrive, size := rec.At, rec.Size
		c.eng.After(c.hitLatency, func(now sim.Time) {
			rt := now - arrive
			c.resp.AddClass(rt, false)
			if c.tel != nil {
				c.tel.RequestDone(now, false, size, rt)
			}
		})
		return nil
	}
	c.misses++
	if c.tel != nil {
		c.tel.CacheMiss(rec.At, -1, rec.Size)
	}
	for b := first; b <= last; b++ {
		c.lru.Put(b)
	}
	return c.inner.Submit(rec)
}

// Close implements Controller.
func (c *CachedController) Close(now sim.Time) { c.inner.Close(now) }
