// Package telemetry is a fixture stub of the real telemetry package:
// just enough surface for the telemetryguard analyzer, which matches the
// *Recorder type by package-path suffix and so treats this stub exactly
// like the real thing.
package telemetry

// Event is a journal record (shape irrelevant to the analyzer).
type Event struct {
	At    int64
	Bytes int64
}

// Recorder mimics the nil-safe emission front end.
type Recorder struct{ enabled bool }

// Enabled is the guard method; calling it is always legal.
func (r *Recorder) Enabled() bool { return r != nil && r.enabled }

// Emit is an emission method.
func (r *Recorder) Emit(ev Event) {}

// RequestDone is an emission method.
func (r *Recorder) RequestDone(at int64, write bool, bytes, latency int64) {}

// CacheHit is an emission method.
func (r *Recorder) CacheHit(at int64, pair int, bytes int64) {}
