package main

import (
	"math"
	"strings"
	"testing"
)

// cannedMutex is a trimmed debug=1 mutex profile: three stacks whose
// innermost program frames are in slabcore (reached from core), stats,
// and none at all.
const cannedMutex = `--- mutex:
cycles/second=2000000000
sampling period=1
4000000000 12 @ 0x46b2a5 0x4f1e2c 0x4f3a10 0x4f5b77
#	0x46b2a5	sync.(*Mutex).Unlock+0x65					/usr/lib/go/src/sync/mutex.go:223
#	0x4f1e2c	prudence/internal/slabcore.(*Node).Unlock+0x2c			/src/internal/slabcore/node.go:88
#	0x4f3a10	prudence/internal/core.(*Cache).refill+0x130			/src/internal/core/cache.go:301
#	0x4f5b77	prudence/internal/core.(*Cache).Malloc+0x97			/src/internal/core/cache.go:120

1000000 3 @ 0x46b2a5 0x51aa01 0x52bc02
#	0x46b2a5	sync.(*Mutex).Unlock+0x65					/usr/lib/go/src/sync/mutex.go:223
#	0x51aa01	prudence/internal/stats.(*Histogram).Observe+0x101		/src/internal/stats/histogram.go:49
#	0x52bc02	prudence/internal/server.(*Server).runBatch+0x1a2		/src/internal/server/server.go:371

2000000 1 @ 0x46b2a5 0x60aa01
#	0x46b2a5	sync.(*Mutex).Unlock+0x65					/usr/lib/go/src/sync/mutex.go:223
#	0x60aa01	main.(*client).run+0x41						/src/perfbench/session.go:80

6000000 2 @ 0x46b2a5 0x4f1e2c
#	0x46b2a5	sync.(*Mutex).Unlock+0x65					/usr/lib/go/src/sync/mutex.go:223
#	0x4f1e2c	prudence/internal/slabcore.(*Node).Unlock+0x2c			/src/internal/slabcore/node.go:88
`

func TestLockWaitByLayer(t *testing.T) {
	got, err := lockWaitByLayer(strings.NewReader(cannedMutex))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"slabcore": 2003, "stats": 0.5, "other": 1}
	if len(got) != len(want) {
		t.Fatalf("layers = %v, want %v", got, want)
	}
	for layer, ms := range want {
		if math.Abs(got[layer]-ms) > 1e-9 {
			t.Errorf("%s = %v ms, want %v", layer, got[layer], ms)
		}
	}
}

func TestLockWaitByLayerRejectsGarbage(t *testing.T) {
	if _, err := lockWaitByLayer(strings.NewReader("12 3 @ 0x1\n")); err == nil {
		t.Error("record before cycles/second accepted")
	}
	if _, err := lockWaitByLayer(strings.NewReader("cycles/second=x\n")); err == nil {
		t.Error("bad cycles/second accepted")
	}
}

func TestReadLockWaitLive(t *testing.T) {
	if _, err := readLockWait(); err != nil {
		t.Fatal(err)
	}
}
