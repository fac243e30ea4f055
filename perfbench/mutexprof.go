package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime/pprof"
	"strconv"
	"strings"
)

// layerPrefix marks the program's own layers in symbol names.
const layerPrefix = "prudence/internal/"

// lockWaitByLayer parses a mutex profile in its text form (debug=1) and
// returns the delay in milliseconds per layer. Each stack's delay is
// credited to its innermost frame inside a prudence/internal/<layer>
// package; stacks with no such frame go to "other". The runtime already
// scales sampled events by the sampling period, so cycles are summed as
// printed.
func lockWaitByLayer(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	var cyclesPerSec float64
	var cycles float64 // delay of the stack being read, -1 once credited
	layer := ""
	flush := func() {
		if cycles < 0 {
			return
		}
		if layer == "" {
			layer = "other"
		}
		out[layer] += cycles / cyclesPerSec * 1e3
		cycles = -1
	}
	cycles = -1
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "cycles/second="):
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, "cycles/second="), 64)
			if err != nil || v <= 0 {
				return nil, fmt.Errorf("mutex profile: bad %q", line)
			}
			cyclesPerSec = v
		case strings.HasPrefix(line, "#"):
			// "#	0x4a1b2c	pkg.func+0x5c	file.go:12"
			f := strings.Fields(line)
			if layer == "" && len(f) >= 3 && strings.HasPrefix(f[2], layerPrefix) {
				name := strings.TrimPrefix(f[2], layerPrefix)
				layer = name[:strings.IndexAny(name+".", "./")]
			}
		case strings.Contains(line, " @ "):
			flush()
			f := strings.Fields(line)
			v, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return nil, fmt.Errorf("mutex profile: bad record %q", line)
			}
			if cyclesPerSec == 0 {
				return nil, fmt.Errorf("mutex profile: record before cycles/second")
			}
			cycles, layer = v, ""
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	return out, nil
}

// readLockWait snapshots the process mutex profile by layer.
func readLockWait() (map[string]float64, error) {
	var buf bytes.Buffer
	if err := pprof.Lookup("mutex").WriteTo(&buf, 1); err != nil {
		return nil, err
	}
	return lockWaitByLayer(&buf)
}
