package array

import (
	"testing"

	"github.com/rolo-storage/rolo/internal/metrics"
	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/trace"
)

// countingController records which records reached the disk layer.
type countingController struct {
	resp  metrics.ResponseStats
	eng   *sim.Engine
	reads int
	write int
}

func (c *countingController) Submit(rec trace.Record) error {
	if rec.Op == trace.Read {
		c.reads++
	} else {
		c.write++
	}
	arrive := rec.At
	c.eng.After(5*sim.Millisecond, func(now sim.Time) { c.resp.AddClass(now-arrive, rec.Op == trace.Write) })
	return nil
}

func (c *countingController) Close(sim.Time) {}

func TestWithRAMCacheValidation(t *testing.T) {
	eng := sim.New()
	inner := &countingController{eng: eng}
	if _, err := WithRAMCache(nil, &inner.resp, eng, 4, 4096); err == nil {
		t.Error("nil inner accepted")
	}
	if _, err := WithRAMCache(inner, &inner.resp, eng, 4, 0); err == nil {
		t.Error("zero block size accepted")
	}
	if _, err := WithRAMCache(inner, &inner.resp, eng, -1, 4096); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestRAMCacheAbsorbsRepeatReads(t *testing.T) {
	eng := sim.New()
	inner := &countingController{eng: eng}
	c, err := WithRAMCache(inner, &inner.resp, eng, 64, 4096)
	if err != nil {
		t.Fatal(err)
	}
	// A write populates the cache; repeat reads of the block never reach
	// the inner controller.
	if err := c.Submit(trace.Record{At: 0, Op: trace.Write, Offset: 0, Size: 4096}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		eng.RunUntil(sim.Time(i) * sim.Second)
		if err := c.Submit(trace.Record{At: eng.Now(), Op: trace.Read, Offset: 0, Size: 4096}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if inner.reads != 0 {
		t.Fatalf("%d reads leaked past the cache", inner.reads)
	}
	if inner.write != 1 {
		t.Fatalf("writes must pass through: %d", inner.write)
	}
	if got := c.HitRate(); got != 1 {
		t.Fatalf("hit rate = %g, want 1", got)
	}
	// All four requests have recorded responses (hits at RAM latency).
	if inner.resp.Count() != 4 {
		t.Fatalf("responses = %d, want 4", inner.resp.Count())
	}
	if mean := inner.resp.Mean(); mean > 5 {
		t.Fatalf("mean %.3f ms: hits should pull it below the 5 ms disk path", mean)
	}
}

func TestRAMCacheMissFetchesAndCaches(t *testing.T) {
	eng := sim.New()
	inner := &countingController{eng: eng}
	c, err := WithRAMCache(inner, &inner.resp, eng, 64, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(trace.Record{At: 0, Op: trace.Read, Offset: 8192, Size: 4096}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if inner.reads != 1 {
		t.Fatalf("miss did not reach inner controller: %d", inner.reads)
	}
	if err := c.Submit(trace.Record{At: eng.Now(), Op: trace.Read, Offset: 8192, Size: 4096}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if inner.reads != 1 {
		t.Fatal("second read missed despite fill-on-miss")
	}
	if got := c.HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %g, want 0.5", got)
	}
}

func TestRAMCacheEvicts(t *testing.T) {
	eng := sim.New()
	inner := &countingController{eng: eng}
	c, err := WithRAMCache(inner, &inner.resp, eng, 2, 4096)
	if err != nil {
		t.Fatal(err)
	}
	// Touch three distinct blocks; the first must be evicted.
	for i := int64(0); i < 3; i++ {
		if err := c.Submit(trace.Record{At: eng.Now(), Op: trace.Read, Offset: i * 4096, Size: 4096}); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}
	if err := c.Submit(trace.Record{At: eng.Now(), Op: trace.Read, Offset: 0, Size: 4096}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if inner.reads != 4 {
		t.Fatalf("inner reads = %d, want 4 (block 0 evicted)", inner.reads)
	}
}
