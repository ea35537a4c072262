package baseline

import (
	"testing"

	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/trace"
)

func TestGRAIDLogDiskFailureTriggersEmergencyDestage(t *testing.T) {
	a, eng := testArray(t, 2, 1)
	c, err := NewGRAID(a, graidConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Log some writes (below the destage threshold), then kill the logger.
	recs := writeRecs(32, 64<<10, 20*sim.Millisecond)
	replay(t, eng, a, c, recs)
	if c.Destages() != 0 {
		t.Fatalf("premature destage: %d", c.Destages())
	}
	exposed := c.FailLogDisk()
	if exposed <= 0 {
		t.Fatal("no exposed bytes reported despite dirty mirrors")
	}
	if !c.LogDown() {
		t.Fatal("LogDown not set")
	}
	eng.Run()
	// The emergency destage ran: mirrors spun up and were brought current.
	if c.Destages() != 1 {
		t.Fatalf("destages = %d, want 1 (emergency)", c.Destages())
	}
	for i, m := range a.Mirrors {
		if m.SpinCycles() != 1 {
			t.Fatalf("mirror %d spin cycles = %d: every mirror must wake", i, m.SpinCycles())
		}
		if m.Stats().BytesWritten == 0 {
			t.Fatalf("mirror %d not re-protected", i)
		}
	}
	if c.FailLogDisk() != 0 {
		t.Fatal("double failure returned exposure")
	}
}

func TestGRAIDWritesContinueWithoutLogDisk(t *testing.T) {
	a, eng := testArray(t, 2, 1)
	c, err := NewGRAID(a, graidConfig())
	if err != nil {
		t.Fatal(err)
	}
	recs := writeRecs(8, 64<<10, 20*sim.Millisecond)
	replay(t, eng, a, c, recs)
	c.FailLogDisk()
	eng.Run()
	before := c.Responses().Count()
	// Post-failure writes must still complete, with both copies in place.
	for i := 0; i < 4; i++ {
		at := eng.Now()
		if err := c.Submit(trace.Record{At: at, Op: trace.Write, Offset: int64(i) << 20, Size: 64 << 10}); err != nil {
			t.Fatalf("degraded write: %v", err)
		}
		eng.Run()
	}
	if got := c.Responses().Count(); got != before+4 {
		t.Fatalf("responses = %d, want %d", got, before+4)
	}
	// Replacement restores logging.
	if err := c.ReplaceLogDisk(); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if c.LogDown() {
		t.Fatal("log still marked failed after replacement")
	}
	logBytesBefore := a.Extras[0].Stats().BytesWritten
	if err := c.Submit(trace.Record{At: eng.Now(), Op: trace.Write, Offset: 0, Size: 64 << 10}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if a.Extras[0].Stats().BytesWritten <= logBytesBefore {
		t.Fatal("replacement log disk received no writes")
	}
	if err := c.ReplaceLogDisk(); err == nil {
		t.Fatal("replacing a healthy log disk must error")
	}
}
