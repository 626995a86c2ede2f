package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"chipkillpm/internal/fleet"
	"chipkillpm/internal/guard"
	"chipkillpm/internal/nvram"
	"chipkillpm/internal/rank"
)

var (
	runtimeRBER = nvram.PCM3.RBER(nvram.Hour) // 2e-4: hourly refresh (paper Sec IV)
	outageRBER  = nvram.PCM3.RBER(nvram.Week) // 1e-3: one week unpowered
)

func fleetConfig(seed int64) fleet.Config {
	return fleet.Config{
		Ranks: numRanks, Banks: numBanks, RowsPerBank: rowsPerBank, RowBytes: rowBytes,
		Seed:      seed,
		Threshold: 2, // the paper's runtime RS acceptance threshold
		Guard:     guard.Config{Seed: seed ^ 0x5eed, PatrolUnits: patrolUnits},
	}
}

// checker keeps one goroutine's operation counts and compares what the
// program serves with the shadow copy of every acknowledged write. The
// driving goroutine and each demand client have their own checker over
// the same shadow; each client only touches its own half of it.
type checker struct {
	shadow            []byte
	attempted, failed int64
	corrupt           int64 // served reads that differ from the shadow
}

func (c *checker) want(block int64) []byte {
	return c.shadow[block*blockBytes : (block+1)*blockBytes]
}

// served records a read of block that returned err and served got. An
// error is a failed operation; served bytes that differ from the shadow
// are silent corruption.
func (c *checker) served(block int64, got []byte, err error) {
	c.attempted++
	switch {
	case err != nil:
		c.failed++
	case !bytes.Equal(got, c.want(block)):
		c.corrupt++
	}
}

// acked records a write of data to block that returned err; once
// acknowledged, data is what the block must serve.
func (c *checker) acked(block int64, data []byte, err error) {
	c.attempted++
	if err != nil {
		c.failed++
		return
	}
	copy(c.want(block), data)
}

// done records an operation with nothing to compare, such as a tick.
func (c *checker) done(err error) {
	c.attempted++
	if err != nil {
		c.failed++
	}
}

// add moves o's counts into c.
func (c *checker) add(o *checker) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.corrupt += o.corrupt
	o.attempted, o.failed, o.corrupt = 0, 0, 0
}

// bench is one run's harness state: the fleet under test, the checker
// of the driving goroutine (whose shadow is the run's shadow copy), and
// the failed property checks.
type bench struct {
	in  *inputs
	cfg fleet.Config
	f   *fleet.Fleet
	ref *refKernel // reads the host's speed around every timed unit
	checker

	problems []string // failed property checks, in order

	// ticks, when set, records every supervision tick's wall time and
	// heap objects allocated (traced runs only).
	ticks *tickLog
}

func newBench(in *inputs, seed int64) *bench {
	return &bench{in: in, cfg: fleetConfig(seed), ref: newRefKernel()}
}

// problem records a failed property check; any problem makes the run
// incorrect.
func (b *bench) problem(format string, args ...any) {
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

func (b *bench) correct() bool {
	return len(b.problems) == 0 && b.corrupt == 0
}

// setup builds the fleet and populates every block, reps times, and
// returns each repetition's wall time; the last fleet is kept.
func (b *bench) setup(reps int) ([]float64, error) {
	var secs []float64
	for i := 0; i < reps; i++ {
		// Collect the previous build's garbage outside the timed span, so
		// no repetition pays for another's.
		b.f = nil
		runtime.GC()
		b.ref.sample()
		start := time.Now()
		f, err := fleet.New(b.cfg)
		if err != nil {
			return nil, err
		}
		for blk := int64(0); blk < f.Blocks(); blk++ {
			if err := f.WriteBlockInitial(blk, b.in.initial[blk*blockBytes:(blk+1)*blockBytes]); err != nil {
				return nil, fmt.Errorf("populating block %d: %w", blk, err)
			}
		}
		secs = append(secs, time.Since(start).Seconds())
		b.f = f
	}
	b.shadow = append([]byte(nil), b.in.initial...)
	return secs, nil
}

// read issues one checked demand read.
func (b *bench) read(block int64, buf []byte) {
	b.served(block, buf, b.f.ReadBlockInto(block, buf))
}

// write issues one checked demand write.
func (b *bench) write(block int64, data []byte) {
	b.acked(block, data, b.f.WriteBlock(block, data))
}

// tick runs one fleet supervision tick and returns its wall time.
func (b *bench) tick() time.Duration {
	d, err := b.ticks.tick(b.f)
	b.done(err)
	if err != nil {
		b.problem("tick: %v", err)
	}
	return d
}

// tickLog records the wall time and heap objects allocated of every tick
// run through it. Its tick method works on a nil log, which records
// nothing.
type tickLog struct {
	ns, allocs []int64
	sample     []metrics.Sample
}

func newTickLog() *tickLog {
	return &tickLog{sample: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

// tick runs one fleet supervision tick and returns its wall time.
func (l *tickLog) tick(f *fleet.Fleet) (time.Duration, error) {
	var a0 uint64
	if l != nil {
		metrics.Read(l.sample)
		a0 = l.sample[0].Value.Uint64()
	}
	t0 := time.Now()
	err := f.Tick()
	d := time.Since(t0)
	if l != nil {
		metrics.Read(l.sample)
		l.ns = append(l.ns, int64(d))
		l.allocs = append(l.allocs, int64(l.sample[0].Value.Uint64()-a0))
	}
	return d, err
}

// verifyAll reads every block back against the shadow, returning the
// reads it made.
func (b *bench) verifyAll(buf []byte, lat *latencies, t *tracer, parent int32) int64 {
	n := b.f.Blocks()
	for blk := int64(0); blk < n; blk++ {
		sp := t.begin(spFleetRead, parent)
		t0 := lat.start(opRead)
		b.read(blk, buf)
		lat.stop(opRead, t0)
		t.end(sp)
	}
	return n
}

// powerOff hands back the fleet's ranks and journal regions, dropping the
// fleet itself: what survives an outage.
func (b *bench) powerOff() ([]*rank.Rank, []*guard.Region) {
	ranks := make([]*rank.Rank, b.f.NumRanks())
	regions := make([]*guard.Region, b.f.NumRanks())
	for i := range ranks {
		ranks[i] = b.f.Rank(i)
		regions[i] = b.f.Region(i)
	}
	b.f = nil
	return ranks, regions
}
