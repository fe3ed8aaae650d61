package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host-speed probe.
//
// A shared host does not run the benchmark at a steady speed. Neighbours
// on the same physical cores slow a vCPU by up to about 1.7× for spells
// of a tenth of a second to several seconds, and how much of a minute
// is slow changes with their load; across hours the median speed moved
// by a factor of three. A campaign's raw time moves with that as much as
// with the code.
//
// So while an operation runs its timed phase, a sampler goroutine times a
// fixed chunk of pure-Go work every probePeriod, beside the campaign, in
// thread-CPU time. Its samples see the host at the same moments as the
// campaign, and their mean speed, probeRefS ÷ chunk time, is the speed of
// the host over the timed phase. The end-to-end times are the measured
// times multiplied by that speed: seconds on a host where a chunk takes
// exactly probeRefS. (Time in which the host ran nothing of the process
// at all is kept out differently: see childMain.) The probe is benchmark
// code and calls nothing of the repository's, so a change to the program
// moves the campaign but not the probe. The raw times are reported too,
// in the traced run.

// probeRefS is the reference time of one probe chunk, about what a chunk
// takes on an uncontended core of the box described in README.md.
const probeRefS = 0.00025

// probePeriod is the sampler's interval. A chunk takes about a thirtieth
// of it, which is the probe's share of one vCPU.
const probePeriod = 10 * time.Millisecond

// probeState is the kernel's working set, allocated once so that the
// probe leaves no garbage for the campaign's collector.
type probeState struct {
	code  [16]uint8
	table [1024]uint64
	next  [1024]uint16
	buf   [16 << 10]byte
	dst   [16 << 10]byte
	acc   uint64
}

// probeCode is the instruction stream chunk dispatches on.
var probeCode = [16]uint8{0, 1, 2, 3, 1, 0, 2, 4, 3, 1, 0, 4, 2, 2, 1, 3}

// chunk is one unit of the kernel. It mixes the host work the simulator
// does most: a switch-dispatched instruction loop, table lookups,
// pointer chasing and bulk copies, all within a core's private caches.
// (A variant that also chased pointers through 4 MiB, missing them,
// tracked the campaigns' slow-downs worse, not better.)
func (p *probeState) chunk() {
	x, acc := uint32(2463534242), p.acc
	for i := 0; i < 60_000; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		switch p.code[i&15] {
		case 0:
			acc += uint64(x)
		case 1:
			acc ^= uint64(x) << 7
		case 2:
			k := x & 1023
			p.table[k] += acc
			p.next[k] = uint16(acc & 1023)
		case 3:
			for j, k := 0, uint16(x&1023); j < 8; j, k = j+1, p.next[k] {
				acc += p.table[k]
			}
		case 4:
			if i&255 == 4 {
				p.buf[x&(16<<10-1)] = byte(acc)
				copy(p.dst[:], p.buf[:])
				acc += uint64(p.dst[x&1023])
			}
		}
	}
	p.acc = acc
}

// sampler runs the probe every probePeriod until stopped.
type sampler struct {
	stop chan struct{}
	done sync.WaitGroup
	cpu  []float64 // each chunk's thread-CPU time, seconds
}

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{})}
	p := &probeState{code: probeCode}
	p.chunk() // fault in the working set before the first sample
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(probePeriod)
		defer t.Stop()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			c0 := threadCPU()
			p.chunk()
			s.cpu = append(s.cpu, threadCPU()-c0)
		}
	}()
	return s
}

// probeResult summarises a sampler's chunks.
type probeResult struct {
	Samples int     `json:"samples"`
	Speed   float64 `json:"speed"` // mean of probeRefS ÷ chunk CPU time
	CPUS    float64 `json:"cpu_s"` // the chunks' total CPU time
}

// finish stops the sampler, waits for it, and summarises its chunks.
func (s *sampler) finish() probeResult {
	close(s.stop)
	s.done.Wait()
	return summarise(s.cpu)
}

// summarise turns chunk CPU times into a speed. A phase too short for a
// single sample reads speed 1.
func summarise(cpu []float64) probeResult {
	r := probeResult{Samples: len(cpu), Speed: 1}
	if r.Samples == 0 {
		return r
	}
	r.Speed = 0
	for _, c := range cpu {
		r.Speed += probeRefS / max(c, 1e-9) / float64(r.Samples)
		r.CPUS += c
	}
	return r
}

// probeNow times a few chunks on the calling goroutine and returns the
// host's speed now, for phases too short to sample beside.
func probeNow() float64 {
	p := &probeState{code: probeCode}
	p.chunk() // fault in the working set
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	const n = 8
	speed := 0.0
	for i := 0; i < n; i++ {
		w0 := time.Now()
		p.chunk()
		speed += probeRefS / time.Since(w0).Seconds() / n
	}
	return speed
}

// threadCPU is the calling thread's CPU time in seconds. The call's
// error is not checked: Linux always has this clock for the calling
// thread.
func threadCPU() float64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Nano()) / 1e9
}
