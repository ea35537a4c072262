package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestZeroValueEngineUsable(t *testing.T) {
	var e Engine
	ran := false
	if err := e.Schedule(5*Millisecond, func(now Time) { ran = true }); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	e.Run()
	if !ran {
		t.Fatal("event did not fire")
	}
	if e.Now() != 5*Millisecond {
		t.Fatalf("Now() = %v, want 5ms", e.Now())
	}
}

func TestScheduleInPast(t *testing.T) {
	e := New()
	e.After(10, func(Time) {})
	e.Run()
	if err := e.Schedule(5, func(Time) {}); err == nil {
		t.Fatal("expected ErrTimeTravel scheduling at t=5 after clock reached t=10")
	}
}

func TestEventOrdering(t *testing.T) {
	e := New()
	var got []int
	e.After(30, func(Time) { got = append(got, 3) })
	e.After(10, func(Time) { got = append(got, 1) })
	e.After(20, func(Time) { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.After(42, func(Time) { got = append(got, i) })
	}
	e.Run()
	if !sort.IntsAreSorted(got) {
		t.Fatalf("same-time events fired out of scheduling order: %v", got)
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.After(at, func(now Time) { fired = append(fired, now) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %d events by t=25, want 2", len(fired))
	}
	if e.Now() != 25 {
		t.Fatalf("Now() = %v after RunUntil(25), want 25", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("fired %d events total, want 4", len(fired))
	}
}

func TestStop(t *testing.T) {
	e := New()
	count := 0
	for i := 1; i <= 10; i++ {
		e.After(Time(i), func(Time) {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("executed %d events, want 3 (stopped)", count)
	}
	if e.Pending() != 7 {
		t.Fatalf("Pending() = %d, want 7", e.Pending())
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := New()
	var got []Time
	e.After(10, func(now Time) {
		got = append(got, now)
		e.After(5, func(now Time) { got = append(got, now) })
	})
	e.Run()
	if len(got) != 2 || got[0] != 10 || got[1] != 15 {
		t.Fatalf("got %v, want [10 15]", got)
	}
}

func TestAfterNegativeClamps(t *testing.T) {
	e := New()
	e.After(10, func(Time) {
		e.After(-5, func(now Time) {
			if now != 10 {
				t.Errorf("negative After fired at %v, want 10", now)
			}
		})
	})
	e.Run()
}

func TestFiredCounter(t *testing.T) {
	e := New()
	for i := 0; i < 17; i++ {
		e.After(Time(i), func(Time) {})
	}
	e.Run()
	if e.Fired() != 17 {
		t.Fatalf("Fired() = %d, want 17", e.Fired())
	}
}

// Property: regardless of the insertion order of random timestamps, the
// engine fires events in non-decreasing time order and the clock never
// moves backwards.
func TestQuickMonotonicClock(t *testing.T) {
	f := func(stamps []uint32) bool {
		e := New()
		var fired []Time
		for _, s := range stamps {
			at := Time(s % 1_000_000)
			e.After(at, func(now Time) { fired = append(fired, now) })
		}
		e.Run()
		if len(fired) != len(stamps) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeConversions(t *testing.T) {
	cases := []struct {
		in   Time
		secs float64
	}{
		{Second, 1},
		{500 * Millisecond, 0.5},
		{Minute, 60},
		{Hour, 3600},
	}
	for _, c := range cases {
		if got := c.in.Seconds(); got != c.secs {
			t.Errorf("%v.Seconds() = %v, want %v", c.in, got, c.secs)
		}
	}
	if FromSeconds(1.5) != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %v", FromSeconds(1.5))
	}
	if FromMilliseconds(3.4) != 3400 {
		t.Errorf("FromMilliseconds(3.4) = %v", FromMilliseconds(3.4))
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		for j := 0; j < 1000; j++ {
			e.After(Time(rng.Intn(1_000_000)), func(Time) {})
		}
		e.Run()
	}
}

func TestRunUntilExactBoundary(t *testing.T) {
	e := New()
	fired := false
	e.After(25, func(Time) { fired = true })
	e.RunUntil(25) // inclusive boundary
	if !fired {
		t.Fatal("event at the deadline did not fire")
	}
}

func TestScheduleSeriesValidation(t *testing.T) {
	e := New()
	e.After(10, func(Time) {})
	e.Run()
	noop := func(int, Time) {}
	times := func(ts ...Time) func(int) Time { return func(i int) Time { return ts[i] } }
	if err := e.ScheduleSeries(2, times(5, 20), noop); !errors.Is(err, ErrTimeTravel) {
		t.Errorf("series starting in the past: err = %v, want ErrTimeTravel", err)
	}
	if err := e.ScheduleSeries(3, times(10, 30, 20), noop); !errors.Is(err, ErrSeriesOrder) {
		t.Errorf("unordered series: err = %v, want ErrSeriesOrder", err)
	}
	if err := e.ScheduleSeries(-1, times(), noop); !errors.Is(err, ErrSeriesOrder) {
		t.Errorf("negative length: err = %v, want ErrSeriesOrder", err)
	}
	if e.Pending() != 0 {
		t.Fatalf("rejected series left %d pending events", e.Pending())
	}
	if err := e.ScheduleSeries(0, times(), noop); err != nil {
		t.Errorf("empty series: %v", err)
	}
	if err := e.ScheduleSeries(2, times(10, 10), noop); err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleSeries(1, times(40), noop); !errors.Is(err, ErrSeriesOrder) {
		t.Errorf("second pending series: err = %v, want ErrSeriesOrder", err)
	}
	e.Run()
	if err := e.ScheduleSeries(1, times(40), noop); err != nil {
		t.Errorf("series after the previous one drained: %v", err)
	}
}

// TestSeriesFiredAndHook checks that series members count as fired events
// and run the event hook, like any other event.
func TestSeriesFiredAndHook(t *testing.T) {
	e := New()
	var hooked []Time
	e.SetEventHook(func(now Time) { hooked = append(hooked, now) })
	var got []int
	if err := e.ScheduleSeries(3, func(i int) Time { return Time(10 * i) },
		func(i int, now Time) { got = append(got, i) }); err != nil {
		t.Fatal(err)
	}
	e.After(15, func(Time) { got = append(got, -1) })
	e.Run()
	want := []int{0, 1, -1, 2}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("firing order %v, want %v", got, want)
	}
	if e.Fired() != 4 || len(hooked) != 4 || hooked[3] != 20 {
		t.Fatalf("Fired() = %d, hook saw %v", e.Fired(), hooked)
	}
}
