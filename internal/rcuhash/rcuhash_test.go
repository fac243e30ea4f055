package rcuhash_test

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"prudence/internal/alloc"
	"prudence/internal/alloctest"
	"prudence/internal/core"
	"prudence/internal/rcuhash"
	"prudence/internal/slub"
	"prudence/internal/vcpu"
)

func eachAllocator(t *testing.T, fn func(t *testing.T, s *alloctest.Stack, c alloc.Cache)) {
	builders := map[string]alloctest.BuildAllocator{
		"slub": func(s *alloctest.Stack) alloc.Allocator {
			return slub.New(s.Pages, s.RCU, s.Machine.NumCPU())
		},
		"prudence": func(s *alloctest.Stack) alloc.Allocator {
			return core.New(s.Pages, s.RCU, s.Machine, core.Options{})
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			s := alloctest.NewStack(t, alloctest.DefaultStackConfig(), build)
			c := s.Alloc.NewCache(alloctest.TestCacheConfig("hash-" + name))
			fn(t, s, c)
		})
	}
}

func TestBadBucketCountPanics(t *testing.T) {
	eachAllocator(t, func(t *testing.T, s *alloctest.Stack, c alloc.Cache) {
		for _, n := range []int{0, -4, 3, 12} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("New with %d buckets did not panic", n)
					}
				}()
				rcuhash.New(c, s.RCU, n)
			}()
		}
	})
}

func TestPutGetDelete(t *testing.T) {
	eachAllocator(t, func(t *testing.T, s *alloctest.Stack, c alloc.Cache) {
		m := rcuhash.New(c, s.RCU, 8)
		buf := make([]byte, 32)
		for k := uint64(0); k < 100; k++ {
			if err := m.Put(0, k, []byte(fmt.Sprintf("v-%d", k))); err != nil {
				t.Fatal(err)
			}
		}
		if m.Len() != 100 {
			t.Fatalf("Len = %d, want 100", m.Len())
		}
		for k := uint64(0); k < 100; k++ {
			n, ok := m.Get(0, k, buf)
			want := fmt.Sprintf("v-%d", k)
			if !ok || string(buf[:len(want)]) != want {
				t.Fatalf("Get(%d) = %q,%v", k, buf[:n], ok)
			}
		}
		// Overwrite is a copy-update with a deferred free.
		before := c.Counters().Snapshot()
		if err := m.Put(0, 5, []byte("newval")); err != nil {
			t.Fatal(err)
		}
		if d := c.Counters().Snapshot().Sub(before); d.DeferredFrees != 1 {
			t.Fatalf("overwrite produced %d deferred frees, want 1", d.DeferredFrees)
		}
		if m.Len() != 100 {
			t.Fatalf("Len after overwrite = %d", m.Len())
		}
		if _, ok := m.Get(0, 5, buf); !ok || string(buf[:6]) != "newval" {
			t.Fatalf("overwritten value = %q", buf[:6])
		}
		ok, err := m.Delete(0, 5)
		if err != nil || !ok {
			t.Fatalf("Delete = %v,%v", ok, err)
		}
		if _, ok := m.Get(0, 5, buf); ok {
			t.Fatal("deleted key still present")
		}
		if ok, _ := m.Delete(0, 5); ok {
			t.Fatal("double delete succeeded")
		}
	})
}

func TestForEachVisitsAll(t *testing.T) {
	eachAllocator(t, func(t *testing.T, s *alloctest.Stack, c alloc.Cache) {
		m := rcuhash.New(c, s.RCU, 4)
		want := map[uint64]bool{}
		for k := uint64(0); k < 50; k++ {
			if err := m.Put(0, k, []byte("x")); err != nil {
				t.Fatal(err)
			}
			want[k] = true
		}
		seen := map[uint64]bool{}
		m.ForEach(0, func(k uint64, _ []byte) bool {
			if seen[k] {
				t.Errorf("key %d visited twice", k)
			}
			seen[k] = true
			return true
		})
		if len(seen) != len(want) {
			t.Fatalf("visited %d keys, want %d", len(seen), len(want))
		}
		count := 0
		m.ForEach(0, func(uint64, []byte) bool {
			count++
			return count < 7
		})
		if count != 7 {
			t.Fatalf("early stop visited %d", count)
		}
	})
}

func TestResizePreservesContents(t *testing.T) {
	eachAllocator(t, func(t *testing.T, s *alloctest.Stack, c alloc.Cache) {
		m := rcuhash.New(c, s.RCU, 4)
		const n = 200
		for k := uint64(0); k < n; k++ {
			v := make([]byte, 8)
			binary.LittleEndian.PutUint64(v, k*3)
			if err := m.Put(0, k, v); err != nil {
				t.Fatal(err)
			}
		}
		before := c.Counters().Snapshot()
		if err := m.Resize(0, 64); err != nil {
			t.Fatal(err)
		}
		if m.Buckets() != 64 {
			t.Fatalf("Buckets = %d, want 64", m.Buckets())
		}
		if m.Len() != n {
			t.Fatalf("Len after resize = %d, want %d", m.Len(), n)
		}
		buf := make([]byte, 8)
		for k := uint64(0); k < n; k++ {
			if _, ok := m.Get(0, k, buf); !ok || binary.LittleEndian.Uint64(buf) != k*3 {
				t.Fatalf("key %d lost or corrupted after resize", k)
			}
		}
		// The resize defer-freed every old payload: a burst of n.
		if d := c.Counters().Snapshot().Sub(before); d.DeferredFrees != n {
			t.Fatalf("resize produced %d deferred frees, want %d", d.DeferredFrees, n)
		}
		// Shrink back down too.
		if err := m.Resize(0, 8); err != nil {
			t.Fatal(err)
		}
		if m.Len() != n {
			t.Fatalf("Len after shrink = %d", m.Len())
		}
		for k := uint64(0); k < n; k++ {
			if ok, err := m.Delete(0, k); err != nil || !ok {
				t.Fatalf("delete %d after shrink = %v, %v", k, ok, err)
			}
		}
		c.Drain()
		if used := s.Arena.UsedPages(); used != 0 {
			t.Fatalf("%d pages leaked after resize cycle", used)
		}
	})
}

// Concurrent readers across a resize never observe a missing key: the
// table swap publishes a complete view.
func TestReadersAcrossResize(t *testing.T) {
	eachAllocator(t, func(t *testing.T, s *alloctest.Stack, c alloc.Cache) {
		m := rcuhash.New(c, s.RCU, 4)
		const n = 64
		for k := uint64(0); k < n; k++ {
			if err := m.Put(0, k, []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		var missing atomic.Int64
		var stop atomic.Bool
		var wg sync.WaitGroup
		for cpu := 1; cpu < s.Machine.NumCPU(); cpu++ {
			wg.Add(1)
			go func(cpu int) {
				defer wg.Done()
				s.RCU.ExitIdle(cpu)
				defer s.RCU.EnterIdle(cpu)
				buf := make([]byte, 4)
				for !stop.Load() {
					for k := uint64(0); k < n; k++ {
						if _, ok := m.Get(cpu, k, buf); !ok {
							missing.Add(1)
						}
					}
					s.RCU.QuiescentState(cpu)
				}
			}(cpu)
		}
		s.RCU.ExitIdle(0)
		for i := 0; i < 6; i++ {
			buckets := 8 << (i % 3)
			if err := m.Resize(0, buckets); err != nil {
				t.Fatal(err)
			}
			s.RCU.QuiescentState(0)
		}
		s.RCU.EnterIdle(0)
		stop.Store(true)
		wg.Wait()
		if got := missing.Load(); got != 0 {
			t.Fatalf("readers missed keys %d times across resizes", got)
		}
	})
}

func TestConcurrentWritersDistinctKeyRanges(t *testing.T) {
	eachAllocator(t, func(t *testing.T, s *alloctest.Stack, c alloc.Cache) {
		m := rcuhash.New(c, s.RCU, 16)
		s.Machine.RunOnAll(func(cpu *vcpu.CPU) {
			id := cpu.ID()
			s.RCU.ExitIdle(id)
			defer s.RCU.EnterIdle(id)
			base := uint64(id) << 32
			for i := uint64(0); i < 200; i++ {
				if err := m.Put(id, base+i, []byte("a")); err != nil {
					t.Errorf("cpu %d put: %v", id, err)
					return
				}
				if i%3 == 0 {
					if _, err := m.Delete(id, base+i); err != nil {
						t.Errorf("cpu %d delete: %v", id, err)
						return
					}
				}
				s.RCU.QuiescentState(id)
			}
		})
		want := s.Machine.NumCPU() * (200 - 67)
		if got := m.Len(); got != want {
			t.Fatalf("Len = %d, want %d", got, want)
		}
	})
}

// payload encodes a self-checking value: key, version and a checksum
// over both, so a reader can tell a complete version from a torn,
// poisoned or reused object.
func payload(key, version uint64) []byte {
	v := make([]byte, 24)
	binary.LittleEndian.PutUint64(v, key)
	binary.LittleEndian.PutUint64(v[8:], version)
	binary.LittleEndian.PutUint64(v[16:], (key^version)*0x9e3779b97f4a7c15)
	return v
}

func checkPayload(v []byte, key uint64) (version uint64, ok bool) {
	k := binary.LittleEndian.Uint64(v)
	version = binary.LittleEndian.Uint64(v[8:])
	sum := binary.LittleEndian.Uint64(v[16:])
	return version, k == key && sum == (k^version)*0x9e3779b97f4a7c15
}

// Readers on some CPUs look up resident keys while writers on the
// others insert, update and delete keys in the very same buckets. Every
// write replaces a bucket's chain version, so a reader must never miss
// a resident key, never see a version older than one it already saw,
// and always read a complete payload.
func TestReadersWhileWritersRewriteBuckets(t *testing.T) {
	eachAllocator(t, func(t *testing.T, s *alloctest.Stack, c alloc.Cache) {
		const (
			buckets  = 4
			resident = 32
			rounds   = 1500
			writers  = 2
		)
		m := rcuhash.New(c, s.RCU, buckets)
		for k := uint64(0); k < resident; k++ {
			if err := m.Put(0, k, payload(k, 0)); err != nil {
				t.Fatal(err)
			}
		}
		var writing atomic.Int64
		writing.Store(writers)
		s.Machine.RunOnAll(func(cpu *vcpu.CPU) {
			id := cpu.ID()
			s.RCU.ExitIdle(id)
			defer s.RCU.EnterIdle(id)
			if id < writers {
				defer writing.Add(-1)
				transient := uint64(1000 + id*rounds)
				for r := uint64(1); r <= rounds; r++ {
					k := uint64(id) + 2*(r%(resident/2)) // this writer's resident keys
					n := transient + r
					for _, err := range []error{
						m.Put(id, k, payload(k, r)),
						m.Put(id, n, payload(n, 0)),
						m.Put(id, n, payload(n, 1)),
					} {
						if err != nil {
							t.Errorf("cpu %d put: %v", id, err)
							return
						}
					}
					if ok, err := m.Delete(id, n); !ok || err != nil {
						t.Errorf("cpu %d delete %d = %v, %v", id, n, ok, err)
						return
					}
					s.RCU.QuiescentState(id)
				}
				return
			}
			// Odd reader CPUs look keys up through GetMany, even ones
			// through one Get per key; both get the same checks.
			bufs := make([][]byte, rcuhash.MaxGetMany)
			ns := make([]int, rcuhash.MaxGetMany)
			for j := range bufs {
				bufs[j] = make([]byte, 24)
			}
			lookup := func(keys []uint64) {
				if id%2 == 1 {
					m.GetMany(id, keys, bufs, ns)
					return
				}
				for j, k := range keys {
					n, ok := m.Get(id, k, bufs[j])
					if !ok {
						n = -1
					}
					ns[j] = n
				}
			}
			var residents, transients []uint64
			for k := uint64(0); k < resident; k++ {
				residents = append(residents, k)
			}
			for k := uint64(1000); k < 1000+writers*rounds; k += 97 {
				transients = append(transients, k)
			}
			seen := make([]uint64, resident)
			for writing.Load() > 0 {
				for lo := 0; lo < len(residents); lo += rcuhash.MaxGetMany {
					keys := residents[lo:min(lo+rcuhash.MaxGetMany, len(residents))]
					lookup(keys)
					for j, k := range keys {
						if ns[j] < 0 {
							t.Errorf("cpu %d: resident key %d missing", id, k)
							return
						}
						v, ok := checkPayload(bufs[j], k)
						if !ok || v < seen[k] {
							t.Errorf("cpu %d: key %d read version %d (checksum ok %v) after %d", id, k, v, ok, seen[k])
							return
						}
						seen[k] = v
					}
				}
				for lo := 0; lo < len(transients); lo += rcuhash.MaxGetMany {
					keys := transients[lo:min(lo+rcuhash.MaxGetMany, len(transients))]
					lookup(keys)
					for j, k := range keys {
						if ns[j] >= 0 {
							if _, ok := checkPayload(bufs[j], k); !ok {
								t.Errorf("cpu %d: transient key %d read a torn payload", id, k)
								return
							}
						}
					}
				}
				s.RCU.QuiescentState(id)
			}
		})
		if got := m.Len(); got != resident {
			t.Fatalf("Len = %d, want %d", got, resident)
		}
	})
}

// A lookup, single or staged, allocates nothing, and each write on a
// short chain allocates exactly one Go object: the bucket's next chain
// version.
// One bucket keeps every chain between 2 and 16 entries long, the
// range in which a version is a single allocation.
func TestAllocationsPerOperation(t *testing.T) {
	eachAllocator(t, func(t *testing.T, s *alloctest.Stack, c alloc.Cache) {
		const (
			runs     = 12 // AllocsPerRun calls fn runs+1 times
			resident = 16 - runs - 1
		)
		m := rcuhash.New(c, s.RCU, 1)
		for k := uint64(0); k < resident; k++ {
			if err := m.Put(0, k, []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		buf := make([]byte, 8)
		// GetMany's keys: every resident key, then absent ones.
		keys := make([]uint64, rcuhash.MaxGetMany)
		bufs := make([][]byte, len(keys))
		ns := make([]int, len(keys))
		for j := range keys {
			keys[j] = uint64(j)
			if j >= resident {
				keys[j] = 1000 + uint64(j)
			}
			bufs[j] = make([]byte, 8)
		}
		var next, gone uint64 = 100, 100
		for _, tc := range []struct {
			name string
			max  float64
			fn   func() error
		}{
			{"Get", 0, func() error {
				if _, ok := m.Get(0, 1, buf); !ok {
					return fmt.Errorf("key 1 missing")
				}
				return nil
			}},
			{"GetMany", 0, func() error {
				m.GetMany(0, keys, bufs, ns)
				if ns[1] < 0 || ns[len(keys)-1] >= 0 {
					return fmt.Errorf("GetMany ns = %v", ns)
				}
				return nil
			}},
			{"Put update", 1, func() error { return m.Put(0, 1, []byte("w")) }},
			{"Put insert", 1, func() error { next++; return m.Put(0, next, []byte("n")) }},
			{"Delete", 1, func() error {
				gone++
				if ok, err := m.Delete(0, gone); !ok || err != nil {
					return fmt.Errorf("delete %d = %v, %v", gone, ok, err)
				}
				return nil
			}},
		} {
			var err error
			got := testing.AllocsPerRun(runs, func() {
				if e := tc.fn(); e != nil && err == nil {
					err = e
				}
			})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if got > tc.max {
				t.Errorf("%s: %v allocs/op, want at most %v", tc.name, got, tc.max)
			}
		}
	})
}

// GetMany returns exactly what one Get per key returns, for every key
// count up to MaxGetMany, over present keys, absent keys and keys
// deleted just before the call, in buckets holding several keys.
func TestGetManyMatchesGet(t *testing.T) {
	eachAllocator(t, func(t *testing.T, s *alloctest.Stack, c alloc.Cache) {
		const resident = 64
		m := rcuhash.New(c, s.RCU, 8)
		for k := uint64(0); k < resident; k++ {
			if err := m.Put(0, k, payload(k, k%3)); err != nil {
				t.Fatal(err)
			}
		}
		bufs := make([][]byte, rcuhash.MaxGetMany)
		for j := range bufs {
			bufs[j] = make([]byte, 24)
		}
		ns := make([]int, rcuhash.MaxGetMany)
		want := make([]byte, 24)
		gone := uint64(resident)
		for n := 0; n <= rcuhash.MaxGetMany; n++ {
			keys := make([]uint64, n)
			for j := range keys {
				switch j % 3 {
				case 0: // present: the deletes below stop above key 16
					keys[j] = uint64(n+j) % 16
				case 1: // never present
					keys[j] = 1000 + uint64(n*5+j)
				case 2: // deleted just before the call
					gone--
					if ok, err := m.Delete(0, gone); !ok || err != nil {
						t.Fatalf("Delete(%d) = %v, %v", gone, ok, err)
					}
					keys[j] = gone
				}
			}
			for j := range ns {
				ns[j] = -2
			}
			m.GetMany(0, keys, bufs, ns)
			for j, k := range keys {
				wn, ok := m.Get(0, k, want)
				if !ok {
					wn = -1
				}
				if ns[j] != wn || (ok && string(bufs[j][:wn]) != string(want[:wn])) {
					t.Fatalf("n=%d key %d: GetMany = %d %x, Get = %d %x", n, k, ns[j], bufs[j], wn, want)
				}
			}
			for j := n; j < len(ns); j++ {
				if ns[j] != -2 {
					t.Fatalf("n=%d: GetMany wrote ns[%d] past its keys", n, j)
				}
			}
			s.RCU.QuiescentState(0)
		}
		defer func() {
			if recover() == nil {
				t.Error("GetMany of MaxGetMany+1 keys did not panic")
			}
		}()
		m.GetMany(0, make([]uint64, rcuhash.MaxGetMany+1), bufs, ns)
	})
}
