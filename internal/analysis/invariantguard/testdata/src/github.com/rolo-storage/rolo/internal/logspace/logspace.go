// Package logspace is a fixture stub of the real log-space allocator:
// just enough surface for the invariantguard analyzer, which matches the
// *Space type by package-path suffix and so treats this stub exactly like
// the real thing.
package logspace

// Alloc describes one allocation.
type Alloc struct {
	Start, Len int64
	Tag        int
}

// Space mimics the append-only allocator.
type Space struct{ used int64 }

// Alloc is a mutating allocator method.
func (s *Space) Alloc(n int64, tag int) (Alloc, bool) {
	s.used += n
	return Alloc{Len: n, Tag: tag}, true
}

// ReleaseTag is a mutating allocator method.
func (s *Space) ReleaseTag(tag int) int64 { return 0 }

// Reset is a mutating allocator method.
func (s *Space) Reset() { s.used = 0 }

// UsedBytes is a read-only method; calling it is always legal.
func (s *Space) UsedBytes() int64 { return s.used }
