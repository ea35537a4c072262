package array

import (
	"github.com/rolo-storage/rolo/internal/metrics"
	"github.com/rolo-storage/rolo/internal/raid"
	"github.com/rolo-storage/rolo/internal/sim"
	"github.com/rolo-storage/rolo/internal/telemetry"
	"github.com/rolo-storage/rolo/internal/trace"
)

// Request is the completion join of one in-flight volume request. It
// counts the request's outstanding sub-I/Os; when the last completes it
// records the response time with its pool and returns to the pool's free
// list, so it must not be used past that point.
type Request struct {
	// Done records one sub-I/O completion; assign it to each sub-I/O's
	// OnDone. It is bound once when the Request is first allocated, so
	// reusing the Request allocates nothing (DESIGN §11).
	Done func(now sim.Time)

	arrive    sim.Time
	size      int64
	write     bool
	remaining int
	pool      *Requests
}

// Requests is a controller's free list of Request joins and the response
// statistics they complete into. The zero value is ready to use. Like the
// IO pool it is unsynchronized: it belongs to one simulation goroutine.
type Requests struct {
	// Resp collects the response time of every completed request.
	Resp metrics.ResponseStats

	tel  *telemetry.Recorder
	free []*Request
	exts []raid.Extent // Arrive's extent scratch
}

// SetTelemetry makes completions emit one RequestDone event per request
// to rec (nil disables them).
func (p *Requests) SetTelemetry(rec *telemetry.Recorder) { p.tel = rec }

// Arrive maps rec onto geom's per-pair extents. The extents live in a
// scratch slice reused by the next arrival, so the controller must
// consume them before Submit returns.
func (p *Requests) Arrive(geom raid.Geometry, rec trace.Record) ([]raid.Extent, error) {
	exts, err := geom.AppendExtents(p.exts[:0], rec.Offset, rec.Size)
	if err != nil {
		return nil, err
	}
	p.exts = exts
	return exts, nil
}

// Start returns a join for rec that completes after n sub-I/Os; n must be
// > 0, since a zero-count join never completes.
func (p *Requests) Start(rec trace.Record, n int) *Request {
	var r *Request
	if k := len(p.free); k > 0 {
		r = p.free[k-1]
		p.free = p.free[:k-1]
	} else {
		r = &Request{pool: p}
		r.Done = r.done
	}
	r.arrive, r.size, r.write, r.remaining = rec.At, rec.Size, rec.Op == trace.Write, n
	return r
}

func (r *Request) done(now sim.Time) {
	r.remaining--
	if r.remaining != 0 {
		return
	}
	p := r.pool
	rt := now - r.arrive
	p.Resp.AddClass(rt, r.write)
	if p.tel != nil {
		p.tel.RequestDone(now, r.write, r.size, rt)
	}
	p.free = append(p.free, r)
}
