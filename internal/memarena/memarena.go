// Package memarena provides the simulated physical memory that the rest
// of the system allocates from.
//
// The paper's evaluation runs inside the Linux kernel where slabs are
// built out of physical page frames obtained from the buddy page
// allocator. In this reproduction the "physical memory" is a fixed-size
// arena divided into page frames. The arena is the single source of
// truth for the "total used memory in the system" series plotted in
// Figure 3: every slab grow consumes frames here and every slab shrink
// returns them.
//
// Two backends provide the backing bytes, selected by name through
// NewBackend (see Backends):
//
//   - "heap": one GC-visible []byte allocation (the portable default).
//     The Go runtime accounts, sweeps and paces against the arena, so
//     GC behaviour pollutes memory-cost measurements at large sizes.
//   - "mmap" (linux only): an anonymous private mapping obtained from
//     the kernel via mmap(2), outside the Go heap entirely. The GC
//     neither accounts nor touches it, page frames have real first-touch
//     and memset costs, and the arena must be released explicitly —
//     Close unmaps it.
//
// Both backends hand the arena a plain []byte, so everything above this
// package (buddy allocator, slabs, object caches) works on ordinary
// slices; typed access to frame contents goes through internal/view,
// the one package allowed to build unsafe views over these bytes.
//
// The arena itself only hands out page frames and tracks accounting;
// placement policy (orders, splitting, coalescing) lives in package
// pagealloc.
package memarena

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// PageSize is the size of a page frame in bytes. It mirrors the 4 KiB
// pages of the paper's x86 test machine.
const PageSize = 4096

// DefaultBackend is the backend New uses and the fallback everywhere a
// backend name is optional.
const DefaultBackend = "heap"

// A mapFunc obtains size bytes of zeroed backing memory. It returns the
// bytes and a release function invoked exactly once by Arena.Close (nil
// when the memory needs no explicit release).
type mapFunc func(size int) (backing []byte, release func([]byte) error, err error)

var (
	backendMu sync.Mutex
	backends  = map[string]mapFunc{}
)

// registerBackend adds a named backing-store implementation. Backends
// register from init functions; duplicate names are construction bugs.
func registerBackend(name string, fn mapFunc) {
	backendMu.Lock()
	defer backendMu.Unlock()
	if _, dup := backends[name]; dup {
		panic(fmt.Sprintf("memarena: duplicate backend %q", name))
	}
	backends[name] = fn
}

// Backends returns the registered backend names, sorted. "heap" is
// always present; "mmap" is present on linux.
func Backends() []string {
	backendMu.Lock()
	defer backendMu.Unlock()
	names := make([]string, 0, len(backends))
	for name := range backends {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// BackendAvailable reports whether name is a registered backend on this
// platform.
func BackendAvailable(name string) bool {
	backendMu.Lock()
	defer backendMu.Unlock()
	_, ok := backends[name]
	return ok
}

func init() {
	registerBackend("heap", func(size int) ([]byte, func([]byte) error, error) {
		return make([]byte, size), nil, nil
	})
}

// Arena is a fixed-capacity collection of page frames.
//
// Frames are identified by index in [0, Pages()). Data access returns
// slices aliasing the arena's backing store, so objects handed out by
// the allocators are real memory that callers can read and write.
type Arena struct {
	pages   int
	backing []byte
	backend string
	release func([]byte) error
	closed  atomic.Bool

	// used counts frames currently handed out. It is maintained with
	// atomics so that samplers never block allocation.
	used atomic.Int64
	peak atomic.Int64

	// samplerCount mirrors len(samplers) so the Acquire/Release hot path
	// can skip the sampler mutex entirely while sampling is off — the
	// common case for every run that is not plotting Figure 3.
	samplerCount atomic.Int32

	mu       sync.Mutex
	samplers []func(usedPages, totalPages int)
}

// New creates a heap-backed arena with the given number of page frames.
// It panics if pages is not positive; the arena is the root of the
// simulated machine and a zero-size machine is a construction bug, not
// a runtime condition.
func New(pages int) *Arena {
	a, err := NewBackend(DefaultBackend, pages)
	if err != nil {
		// The heap backend cannot fail to map.
		panic(fmt.Sprintf("memarena: %v", err))
	}
	return a
}

// NewBackend creates an arena with the named backing store. It panics if
// pages is not positive (a construction bug, as in New) and returns an
// error if the backend is unknown on this platform or its mapping fails
// (an environment condition: mmap can legitimately be refused).
func NewBackend(backend string, pages int) (*Arena, error) {
	if pages <= 0 {
		panic(fmt.Sprintf("memarena: non-positive page count %d", pages))
	}
	if backend == "" {
		backend = DefaultBackend
	}
	backendMu.Lock()
	fn, ok := backends[backend]
	backendMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("memarena: unknown arena backend %q (available: %v)", backend, Backends())
	}
	backing, release, err := fn(pages * PageSize)
	if err != nil {
		return nil, fmt.Errorf("memarena: backend %q: mapping %d pages: %w", backend, pages, err)
	}
	if len(backing) != pages*PageSize {
		return nil, fmt.Errorf("memarena: backend %q returned %d bytes, want %d", backend, len(backing), pages*PageSize)
	}
	return &Arena{
		pages:   pages,
		backing: backing,
		backend: backend,
		release: release,
	}, nil
}

// Backend returns the name of the backing store behind this arena.
func (a *Arena) Backend() string { return a.backend }

// Close releases the arena's backing store. For the mmap backend this
// unmaps the memory: any frame slice still held becomes invalid and
// touching it faults. Close is idempotent; only the first call releases.
func (a *Arena) Close() error {
	if !a.closed.CompareAndSwap(false, true) {
		return nil
	}
	backing := a.backing
	a.backing = nil
	if a.release == nil {
		return nil
	}
	if err := a.release(backing); err != nil {
		return fmt.Errorf("memarena: backend %q: %w", a.backend, err)
	}
	return nil
}

// Pages returns the total number of page frames in the arena.
func (a *Arena) Pages() int { return a.pages }

// Bytes returns the total capacity of the arena in bytes.
func (a *Arena) Bytes() int64 { return int64(a.pages) * PageSize }

// UsedPages returns the number of frames currently handed out.
func (a *Arena) UsedPages() int { return int(a.used.Load()) }

// UsedBytes returns the number of bytes currently handed out.
func (a *Arena) UsedBytes() int64 { return a.used.Load() * PageSize }

// PeakPages returns the high-water mark of frames handed out.
func (a *Arena) PeakPages() int { return int(a.peak.Load()) }

// Page returns the backing bytes of frame idx. The returned slice has
// length PageSize and aliases arena memory.
func (a *Arena) Page(idx int) []byte {
	if idx < 0 || idx >= a.pages {
		panic(fmt.Sprintf("memarena: page index %d out of range [0,%d)", idx, a.pages))
	}
	if a.closed.Load() {
		panic(fmt.Sprintf("memarena: page access after Close (backend %q)", a.backend))
	}
	off := idx * PageSize
	return a.backing[off : off+PageSize : off+PageSize]
}

// Range returns the backing bytes for n contiguous frames starting at
// frame idx.
func (a *Arena) Range(idx, n int) []byte {
	if n < 0 || idx < 0 || idx+n > a.pages {
		panic(fmt.Sprintf("memarena: range [%d,%d) out of bounds [0,%d)", idx, idx+n, a.pages))
	}
	if a.closed.Load() {
		panic(fmt.Sprintf("memarena: range access after Close (backend %q)", a.backend))
	}
	off := idx * PageSize
	end := off + n*PageSize
	return a.backing[off:end:end]
}

// Acquire records that n frames were handed out. The page allocator
// calls this after it has chosen which frames to hand out; the arena
// only does accounting and sampling.
func (a *Arena) Acquire(n int) {
	if n <= 0 {
		return
	}
	used := a.used.Add(int64(n))
	if used > int64(a.pages) {
		// The page allocator must never over-commit the arena; this is
		// an internal invariant, not a caller-visible OOM.
		panic(fmt.Sprintf("memarena: over-commit: %d used of %d", used, a.pages))
	}
	for {
		peak := a.peak.Load()
		if used <= peak || a.peak.CompareAndSwap(peak, used) {
			break
		}
	}
	a.notify(int(used))
}

// Release records that n frames were returned.
func (a *Arena) Release(n int) {
	if n <= 0 {
		return
	}
	used := a.used.Add(int64(-n))
	if used < 0 {
		panic(fmt.Sprintf("memarena: negative usage %d", used))
	}
	a.notify(int(used))
}

// AddSampler registers fn to be invoked (synchronously) whenever the
// used-page count changes. Samplers feed the used-memory time series of
// Figure 3. fn must be fast and must not call back into the arena or
// the page allocator over it: the page allocator releases frames with
// its free-list lock held.
func (a *Arena) AddSampler(fn func(usedPages, totalPages int)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.samplers = append(a.samplers, fn)
	a.samplerCount.Store(int32(len(a.samplers)))
}

func (a *Arena) notify(used int) {
	// Fast path: with no samplers registered, an Acquire/Release is just
	// the used-counter atomic (plus the peak load) — no lock, no loop.
	if a.samplerCount.Load() == 0 {
		return
	}
	a.mu.Lock()
	samplers := a.samplers
	a.mu.Unlock()
	for _, fn := range samplers {
		fn(used, a.pages)
	}
}
