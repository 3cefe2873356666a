package main

// The reference kernels the end-to-end timings are scaled by.
//
// This benchmark runs on a few vCPUs of a shared host, and the host has
// two speeds. While the neighbours are busy, the same binary on the same
// inputs takes 1.3x (SHA-1 over buffers in cache) to 2x (pointer chasing
// through a 100 MB heap) its undisturbed time, CPU time included: the
// guest deducts stolen time, so what is left is a busy sibling thread
// and a contended cache. The host stays in one state for seconds or for
// an hour, so no statistic over one run's iterations removes it. Every
// timed region is therefore bracketed by a fixed kernel of the
// benchmark's own, which no change to the program can speed up, and
// reported in reference seconds:
//
//	reported = measured x calNominal / (kernel time before + after)/2
//
// calNominal is the kernel's time on an undisturbed host of this class,
// so there a reference second is a second. A change that makes the
// program 10 % faster reads 10 % lower; a host that is slow for a minute
// slows kernel and program alike and reads the same. Raw seconds go to
// stderr.
//
// There are two kernels because the host slows different code by
// different factors, and a kernel only stands for code that slows as it
// does. memoryBound is an event loop over a timer heap and an 8 MiB
// table of peer records (pointer chasing past L2) followed by random
// read-modify-writes over 64 MiB (DRAM); it slows 2x. computeBound is a
// dependent ALU chain; it slows 1.4x. Each workload names the one it is
// scaled by (catalogue.go); measured across both host states, the other
// choice leaves two to four times the spread. The tables live outside
// the Go heap: 72 MiB of live heap would halve the measured program's GC
// rate.

import (
	"syscall"
	"time"
	"unsafe"
)

// calNominal is each kernel's wall and CPU time at scale 1 on the
// 2.1 GHz Xeon vCPU the baseline was recorded on, undisturbed.
const calNominal = 0.15 // seconds

type kernelKind int

const (
	memoryBound kernelKind = iota
	computeBound
)

const (
	calPeerCount = 1 << 14 // x 512 B = 8 MiB
	calMemWords  = 1 << 23 // x 8 B = 64 MiB
	calTimers    = 2048

	calSpinN  = 92_000_000
	calEventN = 350_000
	calMemN   = 5_200_000
)

type calPeer struct {
	have  [32]uint64 // 256 pieces' worth of bitfield words
	peers [32]int32  // neighbours, by index
	rate  float64
	_     [15]uint64 // pad to 512 B: one record spans 8 cache lines
}

type calTimer struct {
	when float64
	peer int32
}

type calibrator struct {
	kind   kernelKind
	peers  []calPeer // memoryBound only
	mem    []uint64  // memoryBound only
	maps   [][]byte  // the mappings peers and mem live in
	timers []calTimer
	spinN  int
	eventN int
	memN   int
	scale  float64
	sink   uint64
}

// calTime is one kernel run.
type calTime struct{ wall, cpu float64 }

// factor is how much slower than nominal the host ran around a timed
// region bracketed by kernel runs a and b, on each clock.
func (c *calibrator) factor(a, b calTime) calTime {
	nominal := calNominal * c.scale
	return calTime{wall: (a.wall + b.wall) / 2 / nominal, cpu: (a.cpu + b.cpu) / 2 / nominal}
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// offHeap returns n zeroed bytes the garbage collector does not know.
func offHeap(n int) ([]byte, error) {
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

// newCalibrator builds the kernel's tables; scale multiplies its loop
// counts (the smoke sizing runs a fiftieth).
func newCalibrator(kind kernelKind, scale float64) (*calibrator, error) {
	n := func(full int) int { return max(1, int(float64(full)*scale)) }
	c := &calibrator{kind: kind, scale: scale, spinN: n(calSpinN), eventN: n(calEventN), memN: n(calMemN)}
	if kind == computeBound {
		c.run()
		return c, nil
	}
	pb, err := offHeap(calPeerCount * int(unsafe.Sizeof(calPeer{})))
	if err != nil {
		return nil, err
	}
	c.maps = append(c.maps, pb)
	mb, err := offHeap(calMemWords * 8)
	if err != nil {
		c.close()
		return nil, err
	}
	c.maps = append(c.maps, mb)
	c.peers = unsafe.Slice((*calPeer)(unsafe.Pointer(&pb[0])), calPeerCount)
	c.mem = unsafe.Slice((*uint64)(unsafe.Pointer(&mb[0])), calMemWords)
	c.timers = make([]calTimer, 0, calTimers)
	// Nine words in ten are full, so a scan for the first piece a
	// neighbour has and this peer lacks reads ten words on average.
	x := uint64(88172645463325252)
	for i := range c.peers {
		p := &c.peers[i]
		for w := range p.have {
			x = xorshift(x)
			p.have[w] = ^uint64(0)
			if x%10 == 0 {
				p.have[w] = x
			}
		}
		for j := range p.peers {
			x = xorshift(x)
			p.peers[j] = int32(x % calPeerCount)
		}
	}
	for i := range c.mem { // fault every page in now, not inside a timing
		c.mem[i] = uint64(i)
	}
	c.run()
	return c, nil
}

func (c *calibrator) close() {
	for _, m := range c.maps {
		syscall.Munmap(m)
	}
	c.maps, c.peers, c.mem = nil, nil, nil
}

// run executes the kernel once. Every run does the same work: the random
// streams restart, and nothing a run writes steers a later one.
func (c *calibrator) run() calTime {
	c0 := cpuSeconds()
	t0 := time.Now()
	if c.kind == computeBound {
		x := uint64(2463534242)
		for i := 0; i < c.spinN; i++ {
			x = xorshift(x)
		}
		c.sink += x
	} else {
		c.events()
		x := uint64(88172645463325252)
		for i := 0; i < c.memN; i++ {
			x = xorshift(x)
			c.mem[x&(calMemWords-1)] += x
		}
	}
	wall := time.Since(t0).Seconds()
	return calTime{wall: wall, cpu: cpuSeconds() - c0}
}

// events is the simulator-like half of memoryBound: pop the earliest timer, visit its peer
// and one neighbour, scan their bitfields against each other, push the
// neighbour's next timer.
func (c *calibrator) events() {
	x := uint64(1181783497276652981)
	h := c.timers[:0]
	for i := 0; i < calTimers; i++ {
		x = xorshift(x)
		h = calPush(h, calTimer{when: float64(x % 4096), peer: int32(x >> 20 % calPeerCount)})
	}
	var found uint64
	for e := 0; e < c.eventN; e++ {
		var t calTimer
		t, h = calPop(h)
		x = xorshift(x)
		p := &c.peers[t.peer]
		qi := p.peers[x%uint64(len(p.peers))]
		q := &c.peers[qi]
		for w := range p.have {
			if d := q.have[w] &^ p.have[w]; d != 0 {
				found += uint64(w)
				break
			}
		}
		q.rate = q.rate*0.875 + float64(x&1023)
		h = calPush(h, calTimer{when: t.when + float64(x>>32&1023), peer: qi})
	}
	c.sink += found
}

func calPush(h []calTimer, t calTimer) []calTimer {
	h = append(h, t)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if h[parent].when <= h[i].when {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	return h
}

func calPop(h []calTimer) (calTimer, []calTimer) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && h[l].when < h[m].when {
			m = l
		}
		if r < n && h[r].when < h[m].when {
			m = r
		}
		if m == i {
			break
		}
		h[m], h[i] = h[i], h[m]
		i = m
	}
	return top, h
}
