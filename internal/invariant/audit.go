package invariant

import (
	"fmt"
	"slices"

	"github.com/rolo-storage/rolo/internal/logspace"
)

// Audit is the notification sink for the controllers' audited mutation
// helpers. It maintains a shadow ledger of expected per-tag log bytes per
// space; sweeps compare the ledger against the allocator's own accounting,
// so both an allocator bug and a mutation that bypassed the audited
// helpers show up as a divergence. Release and reset notifications are
// additionally checked on the spot for the paper's reclamation-safety
// rule: a reclaimed tag must not hold live (still-dirty) blocks.
//
// All methods are safe on a nil receiver, so controllers call their
// audit handle unconditionally and pay nothing when the sanitizer is off.
type Audit struct {
	san    *Sanitizer
	spaces map[*logspace.Space]*ledger
	order  []int // sweepSpace's scratch: the ledger's tags, sorted
}

// ledger is the audit record of one space: the bytes it is expected to
// hold per tag, a version that every change to those expectations
// advances, and the space's generation and ledger version when it last
// passed sweepSpace. A space's sweep verdict depends only on its
// allocation state and its ledger, so while neither counter has moved
// since a clean sweep, the next sweep would find it clean again and skips
// it (DESIGN §9).
type ledger struct {
	tags    map[int]int64
	version uint64

	passed        bool
	passedGen     uint64
	passedVersion uint64
}

func newAudit(s *Sanitizer) *Audit {
	return &Audit{san: s, spaces: make(map[*logspace.Space]*ledger)}
}

// ledgerOf returns sp's record, creating an empty one on first use.
func (a *Audit) ledgerOf(sp *logspace.Space) *ledger {
	l := a.spaces[sp]
	if l == nil {
		l = &ledger{tags: make(map[int]int64)}
		a.spaces[sp] = l
	}
	return l
}

// Alloc records that n bytes were allocated under tag on sp.
func (a *Audit) Alloc(sp *logspace.Space, tag int, n int64) {
	if a == nil {
		return
	}
	l := a.ledgerOf(sp)
	l.tags[tag] += n
	l.version++
}

// Release records that ReleaseTag(tag) on sp reclaimed freed bytes, and
// checks reclamation safety: the ledger must have expected exactly freed
// bytes under the tag, and dirty — the bytes still dirty on the pair the
// tag names, 0 for generation-tagged logs — must be 0 (a destage
// completion is the only legal trigger; releasing earlier would reclaim
// live log copies).
func (a *Audit) Release(sp *logspace.Space, tag int, freed, dirty int64) {
	if a == nil {
		return
	}
	var expect int64
	if l := a.spaces[sp]; l != nil {
		var ok bool
		if expect, ok = l.tags[tag]; ok {
			delete(l.tags, tag)
			l.version++
		}
	}
	if expect != freed {
		a.san.Report(Violation{
			Check:    "conservation",
			At:       a.san.eng.Now(),
			Object:   fmt.Sprintf("logspace release tag %d", tag),
			Expected: fmt.Sprintf("%d ledgered bytes reclaimed", expect),
			Actual:   fmt.Sprintf("%d bytes reclaimed", freed),
		})
	}
	if dirty != 0 {
		a.san.Report(Violation{
			Check:    "recoverability",
			At:       a.san.eng.Now(),
			Object:   fmt.Sprintf("pair %d", tag),
			Expected: "log extents reclaimed only after the pair's destage drained",
			Actual:   fmt.Sprintf("tag %d released with %d dirty bytes outstanding", tag, dirty),
		})
	}
}

// Reset records that sp was reset (all tags reclaimed at once) and checks
// reset safety. For schemes where the log holds the only current copy
// (RoLo-E), a reset with any dirty bytes outstanding destroys live data.
// For primary-backed schemes a reset is the logger-failure path and is
// survivable as long as the primaries live; the recoverability sweep
// covers the double-failure case.
func (a *Audit) Reset(sp *logspace.Space) {
	if a == nil {
		return
	}
	if l := a.spaces[sp]; l != nil {
		clear(l.tags)
		l.version++
	}
	if a.san.src == nil {
		return
	}
	st := a.san.src.SanitizerState()
	if st.LogPrimaryBacked {
		return
	}
	for p, dirty := range st.DirtyBytes {
		if dirty != 0 {
			a.san.Report(Violation{
				Check:    "recoverability",
				At:       a.san.eng.Now(),
				Object:   fmt.Sprintf("pair %d", p),
				Expected: "log reset only after every dirty span destaged",
				Actual:   fmt.Sprintf("%d dirty bytes whose only copy was logged", dirty),
			})
			return
		}
	}
}

// sweepSpace compares one space's accounting against the ledger and its
// own internal invariants. It skips a space whose generation and ledger
// version both match those of its last clean sweep.
func (a *Audit) sweepSpace(sp *logspace.Space) []Violation {
	if a == nil || sp == nil {
		return nil
	}
	l := a.ledgerOf(sp)
	gen := sp.Generation()
	if l.passed && l.passedGen == gen && l.passedVersion == l.version {
		return nil
	}
	var out []Violation
	if err := sp.CheckInvariants(); err != nil {
		out = append(out, Violation{
			Check:    "conservation",
			Object:   "logspace",
			Expected: "internally consistent allocator",
			Actual:   err.Error(),
		})
	}
	order := a.order[:0]
	for tag := range l.tags {
		order = append(order, tag)
	}
	slices.Sort(order)
	a.order = order[:0]
	var total int64
	for _, tag := range order {
		expect := l.tags[tag]
		total += expect
		if got := sp.TagBytes(tag); got != expect {
			out = append(out, Violation{
				Check:    "conservation",
				Object:   fmt.Sprintf("logspace tag %d", tag),
				Expected: fmt.Sprintf("%d audited bytes", expect),
				Actual:   fmt.Sprintf("%d allocated bytes", got),
			})
		}
	}
	for _, tag := range sp.Tags() {
		if _, audited := l.tags[tag]; !audited {
			out = append(out, Violation{
				Check:    "conservation",
				Object:   fmt.Sprintf("logspace tag %d", tag),
				Expected: "no bytes (never audited)",
				Actual:   fmt.Sprintf("%d allocated bytes bypassed the audited helpers", sp.TagBytes(tag)),
			})
		}
	}
	if got := sp.UsedBytes(); got != total {
		out = append(out, Violation{
			Check:    "conservation",
			Object:   "logspace occupancy",
			Expected: fmt.Sprintf("%d audited bytes", total),
			Actual:   fmt.Sprintf("%d used bytes", got),
		})
	}
	if len(out) == 0 {
		l.passed, l.passedGen, l.passedVersion = true, gen, l.version
	}
	return out
}
