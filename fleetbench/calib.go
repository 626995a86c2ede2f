package main

import "time"

// refSliceNS is the wall time of one reference slice on the reference
// host, a shared 2-vCPU cloud VM. Every end-to-end figure is scaled to
// that host's speed.
const refSliceNS = 2.1e6

// refKernel is fixed work that shares nothing with the program under
// test. A run times one slice of it between its measured units (with
// the demand clients stopped) to read how fast the host is running, and
// scales its figures by the median reading: a host running at half the
// reference speed doubles both the program's times and the slice's, and
// the scaled figure stays where it was. A slice is the table-driven byte
// arithmetic the fleet's BCH and RS coding spends its time on, passes of
// a byte hash over a 64 KiB stream that stays in the core's own caches.
// A larger kernel with dependent loads over 4 MiB read the host less
// well: where its pages landed in the caches moved its median by ±15%
// from one process to the next, against ±2% for this one. It allocates
// nothing.
type refKernel struct {
	table    [256]uint64
	stream   []byte
	sink     uint64
	readings []float64 // slowness of every slice timed
}

const refPasses = 8 // passes over the stream per slice

func newRefKernel() *refKernel {
	k := &refKernel{stream: make([]byte, 1<<16)}
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range k.table {
		k.table[i] = next()
	}
	for i := range k.stream {
		k.stream[i] = byte(next())
	}
	return k
}

// sample times one reference slice and records the host's slowness: its
// wall time over refSliceNS, 1 on the reference host and 2 on a host
// running at half its speed.
func (k *refKernel) sample() {
	// Bring the stream back into the caches first, untimed, so the slice
	// reads the host's speed and not how much of it the program's last
	// unit evicted.
	h := k.sink
	for _, c := range k.stream {
		h += uint64(c)
	}
	t0 := time.Now()
	for range refPasses {
		for i, c := range k.stream {
			h = h<<8 ^ k.table[byte(h>>56)^c]
			if i&63 == 63 {
				k.stream[int(h>>40)&(len(k.stream)-1)] ^= byte(h)
			}
		}
	}
	k.sink = h
	k.readings = append(k.readings, float64(time.Since(t0))/refSliceNS)
}

// slowness is the run's host slowness: the median of its readings, so a
// slice that a stall of the host hit moves nothing.
func (k *refKernel) slowness() float64 {
	return median(k.readings)
}
