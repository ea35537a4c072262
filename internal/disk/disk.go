// Package disk models a single hard disk drive for discrete-event
// simulation: mechanical service times (seek, rotation, transfer), a
// two-priority request queue, and a power-state machine with energy
// accounting in the style of the Dempsey disk power model.
//
// The default parameterization is the IBM Ultrastar 36Z15, the drive used
// throughout the RoLo paper (Table II).
package disk

import (
	"errors"
	"fmt"
	"math"

	"github.com/rolo-storage/rolo/internal/sim"
)

// PowerState enumerates the power states of a drive.
type PowerState int

// Power states. Active means the drive is servicing an I/O; Idle means it is
// spinning but has no work; Standby means the platters are spun down.
// SpinningUp and SpinningDown are the transition states.
const (
	Active PowerState = iota + 1
	Idle
	Standby
	SpinningUp
	SpinningDown

	numPowerStates = int(SpinningDown) + 1
)

// String returns the state name used in reports.
func (s PowerState) String() string {
	switch s {
	case Active:
		return "ACTIVE"
	case Idle:
		return "IDLE"
	case Standby:
		return "STANDBY"
	case SpinningUp:
		return "SPINUP"
	case SpinningDown:
		return "SPINDOWN"
	default:
		return fmt.Sprintf("PowerState(%d)", int(s))
	}
}

// SectorSize is the fixed sector size in bytes used by all disk models.
const SectorSize = 512

// Config holds the mechanical and power parameters of a drive model.
type Config struct {
	Model         string
	CapacityBytes int64
	RPM           int

	// Seek model: seek(d) = TrackSeek + (MaxSeek-TrackSeek)·sqrt(d/dmax)
	// for d > 0, chosen so that the mean over uniformly random distances
	// equals the published average seek time (E[sqrt(U)] = 2/3).
	TrackSeek sim.Time
	MaxSeek   sim.Time

	// TransferRate is the sustained media rate in bytes per second.
	TransferRate float64

	// Power draw per state, in watts.
	ActivePower  float64
	IdlePower    float64
	StandbyPower float64

	// Spin transition costs.
	SpinUpEnergy   float64 // joules
	SpinDownEnergy float64 // joules
	SpinUpTime     sim.Time
	SpinDownTime   sim.Time

	// BackgroundGuard is the idle-slot detector: background I/O is
	// dispatched only when no foreground request has arrived for this
	// long, so destaging consumes genuine idle slots instead of the
	// microscopic gaps inside a burst (Section III-A of the paper).
	BackgroundGuard sim.Time
}

// Ultrastar36Z15 returns the IBM Ultrastar 36Z15 parameters from Table II of
// the paper: 18.4 GB, 15 000 RPM, 3.4 ms average seek, 2 ms average
// rotational latency, 55 MB/s sustained transfer, 13.5/10.2/2.5 W
// active/idle/standby, 135 J/13 J and 10.9 s/1.5 s spin up/down.
func Ultrastar36Z15() Config {
	const avgSeek = 3400 * sim.Microsecond
	const trackSeek = 600 * sim.Microsecond
	// avg = track + (max-track)·2/3  =>  max = track + (avg-track)·3/2
	maxSeek := trackSeek + (avgSeek-trackSeek)*3/2
	return Config{
		Model:           "IBM Ultrastar 36Z15",
		CapacityBytes:   18400 << 20, // 18.4 GB (binary MB, as DiskSim does)
		RPM:             15000,
		TrackSeek:       trackSeek,
		MaxSeek:         maxSeek,
		TransferRate:    55 << 20, // 55 MB/s
		ActivePower:     13.5,
		IdlePower:       10.2,
		StandbyPower:    2.5,
		SpinUpEnergy:    135,
		SpinDownEnergy:  13,
		SpinUpTime:      sim.FromSeconds(10.9),
		SpinDownTime:    sim.FromSeconds(1.5),
		BackgroundGuard: 10 * sim.Millisecond,
	}
}

// WithCapacity returns a copy of c with the capacity replaced. The paper's
// disk-size sensitivity study scales capacity while keeping performance and
// power parameters fixed.
func (c Config) WithCapacity(bytes int64) Config {
	c.CapacityBytes = bytes
	return c
}

// Sectors returns the number of addressable sectors.
func (c Config) Sectors() int64 { return c.CapacityBytes / SectorSize }

// RevolutionTime returns the time for one platter revolution.
func (c Config) RevolutionTime() sim.Time {
	return sim.Time(int64(60) * int64(sim.Second) / int64(c.RPM))
}

// AvgRotationalLatency is half a revolution: the expected latency of a
// random access.
func (c Config) AvgRotationalLatency() sim.Time { return c.RevolutionTime() / 2 }

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.CapacityBytes <= 0:
		return fmt.Errorf("disk: non-positive capacity %d", c.CapacityBytes)
	case c.RPM <= 0:
		return fmt.Errorf("disk: non-positive RPM %d", c.RPM)
	case c.TransferRate <= 0:
		return fmt.Errorf("disk: non-positive transfer rate %g", c.TransferRate)
	case c.MaxSeek < c.TrackSeek:
		return fmt.Errorf("disk: MaxSeek %v < TrackSeek %v", c.MaxSeek, c.TrackSeek)
	case c.SpinUpTime < 0 || c.SpinDownTime < 0:
		return errors.New("disk: negative spin transition time")
	case c.BackgroundGuard < 0:
		return errors.New("disk: negative background guard")
	}
	return nil
}

// IO is a single disk request. Background requests are dispatched only when
// no foreground request is waiting, which implements the paper's rule that
// destaging consumes only free disk bandwidth.
type IO struct {
	LBA        int64 // first sector
	Sectors    int64
	Write      bool
	Background bool

	// OnDone, if non-nil, is invoked at completion time.
	OnDone func(now sim.Time)

	submitted  bool
	enqueuedAt sim.Time

	// pool, when non-nil, is the free list this IO came from; the drive
	// returns the IO to it after the completion (or drop) callback has
	// run. See IOPool.
	pool *IOPool
}

// Errors returned by Disk operations.
var (
	ErrBusy         = errors.New("disk: drive has queued or in-flight work")
	ErrBadState     = errors.New("disk: operation invalid in current power state")
	ErrOutOfRange   = errors.New("disk: request beyond device capacity")
	ErrZeroSectors  = errors.New("disk: request with no sectors")
	ErrFailed       = errors.New("disk: drive has failed")
	errNilIO        = errors.New("disk: nil IO")
	errDoubleSubmit = errors.New("disk: IO submitted twice")
)

// Stats is a snapshot of a drive's accumulated accounting.
type Stats struct {
	EnergyJ       float64
	StateDur      map[PowerState]sim.Time
	SpinUps       int
	SpinDowns     int
	IOsCompleted  int64
	BytesRead     int64
	BytesWritten  int64
	BusyTime      sim.Time // total time servicing I/O
	ForegroundIOs int64
	BackgroundIOs int64
}

// Disk is a simulated drive bound to a simulation engine.
type Disk struct {
	id  int
	cfg Config
	eng *sim.Engine

	// Per-I/O constants derived from cfg once in New: the addressable
	// sectors, the average rotational latency and the seek curve's span.
	sectors    int64
	rotLatency sim.Time
	seekSpan   float64

	state      PowerState
	stateSince sim.Time
	born       sim.Time // creation time: stateDur accrues from here
	stateDur   [numPowerStates]sim.Time
	energyJ    float64

	headPos int64 // sector where the head ended up
	seqNext int64 // LBA that would continue the last access sequentially

	busy    bool
	current *IO
	fg      fifo
	bg      fifo

	spinUps, spinDowns int

	// spinSeq invalidates in-flight spin transitions: each spin-up or
	// spin-down completion closure captures the sequence at scheduling
	// time and no-ops if it has moved on (a failure aborted the
	// transition, or a replacement drive started its own spin-up).
	spinSeq      int
	iosCompleted int64
	bytesRead    int64
	bytesWritten int64
	busyTime     sim.Time
	fgIOs, bgIOs int64

	// alwaysActive models a drive under no power management at all: it
	// draws active power even while idle. The paper's RAID10 baseline
	// keeps every disk ACTIVE for the whole run (Section IV, Table I).
	alwaysActive bool

	lastFGArrival sim.Time
	sawFG         bool
	bgRecheck     bool
	failed        bool

	// completeFn and bgRecheckFn are the two per-IO-rate completion
	// closures, bound once at construction so the dispatch hot path
	// schedules events without allocating (DESIGN §11). completeFn reads
	// d.current, which is safe because at most one request is in flight.
	completeFn  sim.Handler
	bgRecheckFn sim.Handler

	onStateChange []func(d *Disk, from, to PowerState, now sim.Time)
}

// fifo is a simple FIFO queue of IOs.
type fifo struct {
	items []*IO
	head  int
}

// push appends io. When the backing array is full but pops have left
// slack in front of the head, the live entries move down into it first,
// so a queue that never empties reuses its array instead of growing.
func (q *fifo) push(io *IO) {
	if len(q.items) == cap(q.items) && q.head > 0 {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	q.items = append(q.items, io)
}

func (q *fifo) pop() *IO {
	if q.head >= len(q.items) {
		return nil
	}
	io := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return io
}

// popAt removes and returns the i-th queued element (0 = head).
func (q *fifo) popAt(i int) *IO {
	idx := q.head + i
	io := q.items[idx]
	copy(q.items[idx:], q.items[idx+1:])
	q.items[len(q.items)-1] = nil
	q.items = q.items[:len(q.items)-1]
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return io
}

func (q *fifo) at(i int) *IO { return q.items[q.head+i] }

func (q *fifo) len() int { return len(q.items) - q.head }

// New creates a drive in the Idle state at the engine's current time.
func New(id int, cfg Config, eng *sim.Engine) (*Disk, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Disk{
		id:         id,
		cfg:        cfg,
		eng:        eng,
		sectors:    cfg.Sectors(),
		rotLatency: cfg.AvgRotationalLatency(),
		seekSpan:   float64(cfg.MaxSeek - cfg.TrackSeek),
		state:      Idle,
		stateSince: eng.Now(),
		born:       eng.Now(),
		seqNext:    -1,
	}
	d.completeFn = func(at sim.Time) { d.complete(d.current, at) }
	d.bgRecheckFn = func(at sim.Time) {
		d.bgRecheck = false
		d.tryDispatch(at)
	}
	return d, nil
}

// ID returns the drive's identifier within its array.
func (d *Disk) ID() int { return d.id }

// Config returns the drive's configuration.
func (d *Disk) Config() Config { return d.cfg }

// State returns the drive's current power state.
func (d *Disk) State() PowerState { return d.state }

// QueueLen returns the number of queued (not in-flight) requests.
func (d *Disk) QueueLen() int { return d.fg.len() + d.bg.len() }

// ForegroundPending reports whether any foreground work is queued or in flight.
func (d *Disk) ForegroundPending() bool {
	return d.fg.len() > 0 || (d.busy && d.current != nil && !d.current.Background)
}

// Born returns the simulation time the drive was created; state durations
// accrue from this instant, so the durations in Stats always sum to
// Now()-Born().
func (d *Disk) Born() sim.Time { return d.born }

// AddStateChangeHook registers a callback observing power-state
// transitions. Hooks run in registration order, after the state has
// changed. Transitions forced by Fail or ForceState bypass the state
// machine and do not fire hooks.
func (d *Disk) AddStateChangeHook(fn func(d *Disk, from, to PowerState, now sim.Time)) {
	d.onStateChange = append(d.onStateChange, fn)
}

// setState is the audited transition point of the power-state machine:
// every legal transition goes through here (Fail and ForceState are the
// two documented bypasses). The statetransition analyzer checks each call
// site's possible from-states against the declared graph in powerGraph.
//
// rolosan:transition
func (d *Disk) setState(to PowerState, now sim.Time) {
	from := d.state
	if from == to {
		return
	}
	d.accrue(now)
	d.state = to
	for _, fn := range d.onStateChange {
		fn(d, from, to, now)
	}
}

// accrue charges energy and state duration for the interval since the last
// state change or accrual.
func (d *Disk) accrue(now sim.Time) {
	dt := now - d.stateSince
	if dt <= 0 {
		d.stateSince = now
		return
	}
	d.stateDur[d.state] += dt
	d.energyJ += d.statePower(d.state) * dt.Seconds()
	d.stateSince = now
}

// SetAlwaysActive marks the drive as power-unmanaged: idle time is charged
// at active power, as for the paper's RAID10 baseline.
func (d *Disk) SetAlwaysActive(v bool) {
	d.accrue(d.eng.Now())
	d.alwaysActive = v
}

func (d *Disk) statePower(s PowerState) float64 {
	switch s {
	case Active:
		return d.cfg.ActivePower
	case Idle:
		if d.alwaysActive {
			return d.cfg.ActivePower
		}
		return d.cfg.IdlePower
	case Standby:
		return d.cfg.StandbyPower
	default:
		// Spin transitions are charged as lump energies; the interval
		// itself draws nothing extra.
		return 0
	}
}

// ServiceTime computes the service time for a request given the drive's
// current head position, without side effects. Sequential continuations pay
// neither seek nor rotational latency.
func (d *Disk) ServiceTime(io *IO) sim.Time {
	transfer := sim.Time(math.Ceil(float64(io.Sectors*SectorSize) / d.cfg.TransferRate * float64(sim.Second)))
	if io.LBA == d.seqNext {
		return transfer
	}
	dist := io.LBA - d.headPos
	if dist < 0 {
		dist = -dist
	}
	return d.seekTime(dist) + d.rotLatency + transfer
}

func (d *Disk) seekTime(distSectors int64) sim.Time {
	if distSectors == 0 {
		return 0
	}
	frac := float64(distSectors) / float64(d.sectors)
	if frac > 1 {
		frac = 1
	}
	return d.cfg.TrackSeek + sim.Time(math.Round(d.seekSpan*math.Sqrt(frac)))
}

// Failed reports whether the drive has failed.
func (d *Disk) Failed() bool { return d.failed }

// Fail marks the drive as failed at the current instant: it stops drawing
// power, pending queued requests are dropped (their OnDone callbacks fire
// immediately so joins unblock — the controller is expected to reissue or
// degrade), and future submissions are rejected with ErrFailed. The
// in-flight request, if any, still completes (heads park with data already
// transferred in this model).
func (d *Disk) Fail() {
	if d.failed {
		return
	}
	now := d.eng.Now()
	d.accrue(now)
	d.failed = true
	// Abort any in-flight spin transition: its completion closure must
	// not fire a state change on a dead (or later replaced) drive.
	d.spinSeq++
	//lint:allow statetransition:bypass failure bypasses the state machine; a dead drive draws (approximately) nothing and hooks do not fire
	d.state = Standby
	for {
		io := d.fg.pop()
		if io == nil {
			io = d.bg.pop()
		}
		if io == nil {
			break
		}
		if io.OnDone != nil {
			io.OnDone(now)
		}
		io.release()
	}
}

// Replace swaps in a fresh drive in the same slot: the failure flag clears
// and the drive starts spinning up (a replacement begins cold). Cumulative
// accounting continues — the slot's energy history is what reports track.
func (d *Disk) Replace() error {
	if !d.failed {
		return fmt.Errorf("%w: replace a healthy drive", ErrBadState)
	}
	d.failed = false
	d.headPos = 0
	d.seqNext = -1
	d.beginSpinUp(d.eng.Now())
	return nil
}

// Submit queues an I/O. If the drive is in Standby, a spin-up is
// initiated; the request waits for it. All schemes in the paper behave
// this way.
func (d *Disk) Submit(io *IO) error {
	if io == nil {
		return errNilIO
	}
	if d.failed {
		return ErrFailed
	}
	if io.Sectors <= 0 {
		return ErrZeroSectors
	}
	if io.LBA < 0 || io.LBA+io.Sectors > d.sectors {
		return fmt.Errorf("%w: lba=%d sectors=%d capacity=%d", ErrOutOfRange, io.LBA, io.Sectors, d.sectors)
	}
	if io.submitted {
		return errDoubleSubmit
	}
	io.submitted = true
	io.enqueuedAt = d.eng.Now()
	if io.Background {
		d.bg.push(io)
	} else {
		d.fg.push(io)
		d.lastFGArrival = d.eng.Now()
		d.sawFG = true
	}
	d.tryDispatch(d.eng.Now())
	return nil
}

func (d *Disk) tryDispatch(now sim.Time) {
	if d.busy || d.failed {
		return
	}
	switch d.state {
	case Standby:
		if d.QueueLen() > 0 {
			d.beginSpinUp(now)
		}
		return
	case SpinningUp, SpinningDown:
		return // dispatch resumes when the transition completes
	}
	io := d.nextIO(now)
	if io == nil {
		d.setState(Idle, now)
		return
	}
	d.busy = true
	d.current = io
	d.setState(Active, now)
	svc := d.ServiceTime(io)
	d.headPos = io.LBA + io.Sectors
	d.seqNext = io.LBA + io.Sectors
	d.busyTime += svc
	d.eng.After(svc, d.completeFn)
}

// maxHeadOfLineWait bounds how long the oldest queued request may be
// bypassed by sequential-continuation scheduling.
const maxHeadOfLineWait = 15 * sim.Millisecond

// nextIO selects the next request: foreground before background, and among
// foreground requests a sequential continuation of the current head
// position is preferred (modeling command-queue reordering) unless the
// oldest request has already waited too long.
func (d *Disk) nextIO(now sim.Time) *IO {
	if d.fg.len() == 0 {
		if d.bg.len() == 0 {
			return nil
		}
		// Idle-slot detection: hold background work until the disk has
		// been free of foreground arrivals for the guard interval.
		if wait := d.cfg.BackgroundGuard - (now - d.lastFGArrival); wait > 0 && d.sawFG {
			d.scheduleBgRecheck(wait)
			return nil
		}
		return d.bg.pop()
	}
	head := d.fg.at(0)
	if now-head.enqueuedAt < maxHeadOfLineWait {
		for i := 0; i < d.fg.len(); i++ {
			if d.fg.at(i).LBA == d.seqNext {
				return d.fg.popAt(i)
			}
		}
	}
	return d.fg.pop()
}

// scheduleBgRecheck arranges a dispatch attempt once the background guard
// may have expired; a flag prevents duplicate timers.
func (d *Disk) scheduleBgRecheck(wait sim.Time) {
	if d.bgRecheck {
		return
	}
	d.bgRecheck = true
	d.eng.After(wait, d.bgRecheckFn)
}

func (d *Disk) complete(io *IO, now sim.Time) {
	d.busy = false
	d.current = nil
	d.iosCompleted++
	bytes := io.Sectors * SectorSize
	if io.Write {
		d.bytesWritten += bytes
	} else {
		d.bytesRead += bytes
	}
	if io.Background {
		d.bgIOs++
	} else {
		d.fgIOs++
	}
	if io.OnDone != nil {
		io.OnDone(now)
	}
	// The request's lifetime ends with its callback; a pooled IO goes
	// back on the free list before the dispatch of the next one.
	io.release()
	d.tryDispatch(now)
}

// ForceState places the drive directly into a power state with no
// transition latency, energy, or spin-cycle accounting. It is intended for
// setting each scheme's initial disk states at simulation start and is
// rejected once the drive has done any work.
func (d *Disk) ForceState(s PowerState) error {
	if d.iosCompleted > 0 || d.busy || d.QueueLen() > 0 || d.spinUps > 0 || d.spinDowns > 0 {
		return fmt.Errorf("%w: ForceState after activity", ErrBadState)
	}
	if s != Idle && s != Standby {
		return fmt.Errorf("%w: ForceState to %v", ErrBadState, s)
	}
	d.accrue(d.eng.Now())
	//lint:allow statetransition:bypass initial-state setup bypasses the state machine by design (no latency, energy, or hooks)
	d.state = s
	return nil
}

// SpinDown initiates a transition to Standby. It is only legal when the
// drive is Idle with an empty queue; controllers are expected to check.
func (d *Disk) SpinDown() error {
	now := d.eng.Now()
	if d.failed {
		return ErrFailed
	}
	if d.state != Idle {
		return fmt.Errorf("%w: spin down from %v", ErrBadState, d.state)
	}
	if d.busy || d.QueueLen() > 0 {
		return ErrBusy
	}
	d.setState(SpinningDown, now)
	d.spinDowns++
	d.energyJ += d.cfg.SpinDownEnergy
	d.spinSeq++
	seq := d.spinSeq
	d.eng.After(d.cfg.SpinDownTime, func(at sim.Time) {
		if d.spinSeq != seq {
			return // aborted by a failure mid-transition
		}
		//rolosan:from SpinningDown
		d.setState(Standby, at)
		// Work may have arrived during the transition; wake for it.
		if d.QueueLen() > 0 {
			d.beginSpinUp(at)
		}
	})
	return nil
}

// SpinUp explicitly wakes a Standby drive (for example, proactively before a
// destage). It is a no-op if the drive is already spinning or in transition
// to spinning.
func (d *Disk) SpinUp() error {
	now := d.eng.Now()
	if d.failed {
		return ErrFailed
	}
	switch d.state {
	case Active, Idle, SpinningUp:
		return nil
	case SpinningDown:
		return fmt.Errorf("%w: spin up while spinning down", ErrBadState)
	}
	d.beginSpinUp(now)
	return nil
}

func (d *Disk) beginSpinUp(now sim.Time) {
	//rolosan:from Standby
	d.setState(SpinningUp, now)
	d.spinUps++
	d.energyJ += d.cfg.SpinUpEnergy
	d.spinSeq++
	seq := d.spinSeq
	d.eng.After(d.cfg.SpinUpTime, func(at sim.Time) {
		if d.spinSeq != seq {
			return // aborted by a failure mid-transition
		}
		//rolosan:from SpinningUp
		d.setState(Idle, at)
		d.tryDispatch(at)
	})
}

// SpinCycles returns the number of spin-up events, the paper's Table I
// "number of disks spin up/down" metric (one up/down pair counts once).
func (d *Disk) SpinCycles() int { return d.spinUps }

// Stats finalizes accounting to the current simulation time and returns a
// snapshot.
func (d *Disk) Stats() Stats {
	d.accrue(d.eng.Now())
	dur := make(map[PowerState]sim.Time, numPowerStates)
	for s := Active; s <= SpinningDown; s++ {
		if d.stateDur[s] != 0 {
			dur[s] = d.stateDur[s]
		}
	}
	return Stats{
		EnergyJ:       d.energyJ,
		StateDur:      dur,
		SpinUps:       d.spinUps,
		SpinDowns:     d.spinDowns,
		IOsCompleted:  d.iosCompleted,
		BytesRead:     d.bytesRead,
		BytesWritten:  d.bytesWritten,
		BusyTime:      d.busyTime,
		ForegroundIOs: d.fgIOs,
		BackgroundIOs: d.bgIOs,
	}
}

// Totals is the part of a drive's accounting that RoloSan's disk sweep
// reads (DESIGN §9).
type Totals struct {
	StateTime    sim.Time // the per-state durations summed
	EnergyJ      float64
	SpinUps      int
	SpinDowns    int
	IOsCompleted int64
}

// Totals finalizes accounting to the current simulation time, as Stats
// does, and returns the sweep's counters without building Stats'
// per-state map.
func (d *Disk) Totals() Totals {
	d.accrue(d.eng.Now())
	var sum sim.Time
	for _, dur := range d.stateDur {
		sum += dur
	}
	return Totals{
		StateTime:    sum,
		EnergyJ:      d.energyJ,
		SpinUps:      d.spinUps,
		SpinDowns:    d.spinDowns,
		IOsCompleted: d.iosCompleted,
	}
}

// EnergyJ finalizes accounting and returns total energy consumed in joules.
func (d *Disk) EnergyJ() float64 {
	d.accrue(d.eng.Now())
	return d.energyJ
}
