// Package guard exercises the invariantguard analyzer: a toy controller
// whose log-space and dirty-set bookkeeping must flow through the
// rolosan:audited helpers below.
package guard

import (
	"github.com/rolo-storage/rolo/internal/intervals"
	"github.com/rolo-storage/rolo/internal/logspace"
)

// C is a toy controller with sanitizer-audited bookkeeping.
type C struct {
	space  *logspace.Space
	spaces []*logspace.Space
	dirty  []intervals.Set
}

// logAlloc is the audited allocation path.
//
// rolosan:audited
func (c *C) logAlloc(n int64, tag int) (logspace.Alloc, bool) {
	return c.space.Alloc(n, tag)
}

// releaseTag is the audited release path.
//
// rolosan:audited — helpers may touch several spaces.
func (c *C) releaseTag(tag int) {
	for _, sp := range c.spaces {
		sp.ReleaseTag(tag)
	}
}

// markDirty is the audited dirty-set mutation path; closures inside an
// audited helper are covered by the helper's marker.
//
// rolosan:audited
func (c *C) markDirty(p int, start, end int64) {
	defer func() { c.dirty[p].Add(start, end) }()
}

// submitGood routes every mutation through the audited helpers and reads
// freely.
func (c *C) submitGood(n int64) {
	if _, ok := c.logAlloc(n, 1); !ok {
		c.releaseTag(1)
	}
	_ = c.space.UsedBytes()
	_ = c.dirty[0].Total()
}

// submitBad bypasses the helpers.
func (c *C) submitBad(n int64) {
	c.space.Alloc(n, 1)       // want `logspace\.Space\.Alloc outside an audited helper`
	c.spaces[0].ReleaseTag(1) // want `logspace\.Space\.ReleaseTag outside an audited helper`
	c.space.Reset()           // want `logspace\.Space\.Reset outside an audited helper`
}

// touchDirty mutates field-rooted sets directly.
func (c *C) touchDirty(p int) {
	c.dirty[p].Add(0, 8)    // want `c\.dirty\[p\]\.Add mutates shared dirty-set bookkeeping outside an audited helper`
	c.dirty[p].Remove(0, 8) // want `c\.dirty\[p\]\.Remove mutates shared dirty-set bookkeeping`
	c.dirty[p].Clear()      // want `c\.dirty\[p\]\.Clear mutates shared dirty-set bookkeeping`
}

// scratch builds a purely local work set, which is exempt: only shared
// controller bookkeeping is audited.
func (c *C) scratch() int64 {
	work := &intervals.Set{}
	work.Add(0, 64)
	work.Remove(8, 16)
	work.Clear()
	return work.Total()
}

// allowed is a documented exception.
func (c *C) allowed() {
	//lint:allow invariantguard:unaudited rebuild discards the log wholesale by design
	c.space.Reset()
}

// nested flags calls inside closures of unaudited functions too.
func (c *C) nested() {
	f := func() {
		c.space.Reset() // want `logspace\.Space\.Reset outside an audited helper`
	}
	f()
}
