package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// tickEvery is the supervision cadence: client 0 runs one fleet Tick
// after every tickEvery of its own operations, so the supervision work a
// run does is fixed by its operation count, not by the clock.
const tickEvery = 4096

// client is one closed-loop demand goroutine: it issues the next op of
// its pregenerated ring as soon as the previous one returns.
type client struct {
	id   int
	ring []op
	pos  int64 // next ring index; carried across phases

	chk     checker // demand reads and writes, and ticks
	ops     int64   // demand operations, carried across phases
	ticks   int64
	tickErr error
	lat     *latencies
	tr      *tracer
}

// newClients builds the two demand clients of workload w over the bench's
// shadow copy.
func (b *bench) newClients(w workload) []*client {
	cl := make([]*client, 2)
	for i := range cl {
		cl[i] = &client{id: i, ring: b.in.rings[i], chk: checker{shadow: b.shadow},
			lat: newLatencies(w.sample, latencyCap)}
	}
	return cl
}

// windowLen is the stretch of a timed demand phase each end-to-end
// figure is taken over; a run reports the median across its windows, so
// a short stall of the host moves one window, not the result.
const windowLen = time.Second

// window is one stretch of a run: the demand ops completed in it, its
// wall time and the latency samples taken in it.
type window struct {
	ops int64
	ns  int64
	lat [2][]int64
}

// demandPhase runs both clients, either for d or until each has done
// maxOps operations (d = 0), and returns the stretch as one window. drift
// is the retention RBER injected into every rank before each tick, which
// with the guard's patrol scrub holds the fleet near its runtime RBER.
func (b *bench) demandPhase(cl []*client, d time.Duration, maxOps int64, drift float64) window {
	var stop atomic.Bool
	var wg sync.WaitGroup
	var w window
	for _, c := range cl {
		w.ops -= c.ops
		c.lat.ns[opRead], c.lat.ns[opWrite] = c.lat.ns[opRead][:0], c.lat.ns[opWrite][:0]
	}
	start := time.Now()
	for _, c := range cl {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			b.runClient(c, &stop, maxOps, drift)
		}(c)
	}
	if d > 0 {
		time.Sleep(d)
		stop.Store(true)
	}
	wg.Wait()
	w.ns = int64(time.Since(start))
	for _, c := range cl {
		w.ops += c.ops
		for k := range w.lat {
			w.lat[k] = append(w.lat[k], c.lat.ns[k]...)
		}
	}
	return w
}

func (b *bench) runClient(c *client, stop *atomic.Bool, maxOps int64, drift float64) {
	f := b.f
	buf := make([]byte, blockBytes)
	mask := int64(len(c.ring))
	var ticks *tickLog // only traced phases record ticks
	if c.tr != nil {
		ticks = b.ticks
	}
	for i := int64(0); ; i++ {
		if i&255 == 0 && (stop.Load() || (maxOps > 0 && i >= maxOps)) {
			return
		}
		o := c.ring[c.pos%mask]
		c.pos++
		blk := int64(o.block)
		if o.payload < 0 {
			sp := c.tr.begin(spFleetRead, -1)
			t0 := c.lat.start(opRead)
			err := f.ReadBlockInto(blk, buf)
			c.lat.stop(opRead, t0)
			c.tr.end(sp)
			c.chk.served(blk, buf, err)
		} else {
			data := b.in.payload(o.payload)
			sp := c.tr.begin(spFleetWrite, -1)
			t0 := c.lat.start(opWrite)
			err := f.WriteBlock(blk, data)
			c.lat.stop(opWrite, t0)
			c.tr.end(sp)
			c.chk.acked(blk, data, err)
		}
		c.ops++
		if c.id != 0 || c.pos%tickEvery != 0 {
			continue
		}
		if drift > 0 {
			for r := 0; r < f.NumRanks(); r++ {
				rk := f.Rank(r)
				f.Engine(r).Quiesce(func() { rk.InjectRetentionErrors(drift) })
			}
		}
		sp := c.tr.begin(spFleetTick, -1)
		_, err := ticks.tick(f)
		c.tr.end(sp)
		c.ticks++
		c.chk.done(err)
		if err != nil {
			c.tickErr = err
		}
	}
}

// fold moves a client's counters into the run totals.
func (b *bench) fold(c *client) {
	b.add(&c.chk)
	if c.tickErr != nil {
		b.problem("tick: %v", c.tickErr)
	}
	c.ticks, c.tickErr = 0, nil
}
