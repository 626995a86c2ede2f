package main

import (
	"fmt"
	"runtime"
	"time"

	"chipkillpm/internal/fleet"
	"chipkillpm/internal/guard"
	"chipkillpm/internal/nvram"
)

const (
	replicateTicks = 16 // ticks allowed for the heated bands to replicate
	repairTicks    = 64 // ticks allowed from chip death to completed repair
)

// cycleResult is what one outage → boot scrub → chip repair cycle
// measured.
type cycleResult struct {
	bootScrubS     float64 // BootScrub over every rank
	scrubVLEWs     int64
	scrubBits      int64
	rebuilt        int64 // blocks the boot scrub rebuilt (rank 0's dead chip)
	repairTickNS   int64 // the Tick that completed the chip repair
	ticksToRepair  int
	replicateTicks int64
	repair         fleet.RepairReport
	demandOps      int64
	demandNS       int64    // wall time of the cycle's demand sections
	counters       counters // the cycle's counter movement
}

func (r cycleResult) repairUSPerBlock() float64 {
	return float64(r.repairTickNS) / 1e3 / float64(r.repair.ReplicaBlocks+r.repair.ErasureBlocks)
}

// cycle runs one outage-repair cycle on the bench's fleet:
//  1. power off, age every rank one week unpowered (RBER 1e-3) with one
//     data chip of rank 0 dead, and boot a fleet over the survivors;
//  2. BootScrub every rank;
//  3. verify every block;
//  4. heat bands on another rank until the fleet replicates them;
//  5. kill a data chip there and tick, with light reads in between,
//     until the guard convicts it and the fleet repairs it;
//  6. verify every block again.
func (b *bench) cycle(p cyclePlan, lat *latencies, t *tracer) (cycleResult, error) {
	var res cycleResult
	cs := t.begin(spCycle, -1)
	defer t.end(cs)
	buf := make([]byte, blockBytes)

	nvBefore := snapshot(b.f).nv
	ranks, regions := b.powerOff()
	runtime.GC() // the dropped fleet's garbage is not the next boot's cost
	for _, rk := range ranks {
		rk.InjectRetentionErrors(outageRBER)
	}
	ranks[0].FailChip(p.deadChip)
	f, err := fleet.Adopt(b.cfg, ranks, regions)
	if err != nil {
		return res, fmt.Errorf("booting fleet after outage: %w", err)
	}
	b.f = f

	b.ref.sample()
	g := ranks[0].Config().Geometry
	vlewsPerChip := int64(g.Banks * g.RowsPerBank * g.VLEWsPerRow())
	for i := 0; i < f.NumRanks(); i++ {
		sp := t.begin(spBootScrub, cs)
		t0 := time.Now()
		rep := f.Engine(i).BootScrub()
		res.bootScrubS += time.Since(t0).Seconds()
		t.end(sp)
		b.attempted++
		// A chip known dead at boot is rebuilt, not scrubbed.
		want := int64(ranks[i].NumChips()) * vlewsPerChip
		wantRebuilt := []int{}
		if i == 0 {
			want -= vlewsPerChip
			wantRebuilt = []int{p.deadChip}
		}
		if rep.VLEWsScrubbed != want {
			b.problem("rank %d boot scrub covered %d VLEWs, geometry says %d", i, rep.VLEWsScrubbed, want)
		}
		if rep.Unrecoverable || fmt.Sprint(rep.ChipsRebuilt) != fmt.Sprint(wantRebuilt) {
			b.problem("rank %d boot scrub: %v, want chips %v rebuilt", i, rep, wantRebuilt)
		}
		res.scrubVLEWs += rep.VLEWsScrubbed
		res.scrubBits += rep.BitsCorrected
		res.rebuilt += rep.BlocksRebuilt
	}

	t0 := time.Now()
	res.demandOps += b.verifyAll(buf, lat, t, cs)
	res.demandNS += int64(time.Since(t0))

	t0 = time.Now()
	for pass, h := 0, 0; pass < heatPasses; pass++ {
		for _, band := range p.hotBands {
			for i := int64(0); i < bandBlocks; i++ {
				blk := band*bandBlocks + i
				sp := t.begin(spFleetRead, cs)
				l0 := lat.start(opRead)
				b.read(blk, buf)
				lat.stop(opRead, l0)
				t.end(sp)
				sp = t.begin(spFleetWrite, cs)
				l0 = lat.start(opWrite)
				b.write(blk, b.in.payload(p.heat[h]))
				lat.stop(opWrite, l0)
				t.end(sp)
				h++
				res.demandOps += 2
			}
		}
	}
	res.demandNS += int64(time.Since(t0))
	replicated := func() bool {
		for _, band := range p.hotBands {
			if !f.BandReplicated(band * bandBlocks) {
				return false
			}
		}
		return true
	}
	for ; res.replicateTicks < replicateTicks && !replicated(); res.replicateTicks++ {
		sp := t.begin(spFleetTick, cs)
		b.tick()
		t.end(sp)
	}
	if !replicated() {
		b.problem("heated bands %v not replicated after %d ticks", p.hotBands, replicateTicks)
	}

	k := p.killRank
	f.Engine(k).Quiesce(func() { f.Rank(k).FailChip(p.killChip) })
	light := 0
	for res.ticksToRepair < repairTicks && len(f.Repairs()) == 0 {
		t0 = time.Now()
		for j := 0; j < lightReads; j++ {
			sp := t.begin(spFleetRead, cs)
			l0 := lat.start(opRead)
			b.read(p.light[light%len(p.light)], buf)
			lat.stop(opRead, l0)
			t.end(sp)
			light++
		}
		res.demandOps += lightReads
		res.demandNS += int64(time.Since(t0))
		sp := t.begin(spFleetTick, cs)
		d := b.tick()
		t.end(sp)
		res.ticksToRepair++
		if len(f.Repairs()) > 0 {
			res.repairTickNS = int64(d)
			if t != nil {
				t.spans[sp].name = spRepairTick
			}
		}
	}
	reps := f.Repairs()
	switch {
	case len(reps) != 1:
		b.problem("rank %d chip %d: %d repairs after %d ticks, want 1", k, p.killChip, len(reps), res.ticksToRepair)
	default:
		res.repair = reps[0]
		b.checkRepaired(k, p.killChip, res.repair)
	}

	t0 = time.Now()
	res.demandOps += b.verifyAll(buf, lat, t, cs)
	res.demandNS += int64(time.Since(t0))

	b.ref.sample()

	// The engines are new since the outage, so their counters are this
	// cycle's; the ranks persist across cycles.
	res.counters = snapshot(f)
	res.counters.nv = subNV(res.counters.nv, nvBefore)
	res.counters.ticks = int64(res.ticksToRepair) + res.replicateTicks
	return res, nil
}

func subNV(a, b nvram.Stats) nvram.Stats {
	a.DataWrites -= b.DataWrites
	a.RawWrites -= b.RawWrites
	a.VLEWCodeWrites -= b.VLEWCodeWrites
	a.RowActivations -= b.RowActivations
	a.BitErrorsInjected -= b.BitErrorsInjected
	return a
}

// checkRepaired asserts the repaired rank is whole again: the chip is
// healthy, the engine serves the original layout with no migration in
// flight, and the guard convicted once, had the fleet repair the chip in
// place and is back to watching.
func (b *bench) checkRepaired(k, chip int, rep fleet.RepairReport) {
	f := b.f
	if rep.Rank != k || rep.Chip != chip || rep.Unrecoverable {
		b.problem("repair report %+v, want rank %d chip %d recovered", rep, k, chip)
	}
	if rep.ReplicaBlocks == 0 || rep.ErasureBlocks == 0 {
		b.problem("repair of rank %d used replica %d / erasure %d blocks, want both paths", k, rep.ReplicaBlocks, rep.ErasureBlocks)
	}
	if n := f.Rank(k).FailedChips(); n != 0 {
		b.problem("rank %d still has %d failed chips after repair", k, n)
	}
	if deg, _ := f.Engine(k).Degraded(); deg || f.Engine(k).Migrating() != nil {
		b.problem("rank %d degraded=%v migrating=%v after repair", k, deg, f.Engine(k).Migrating() != nil)
	}
	if rr := f.Supervisor(k).Report(); rr.State != guard.StateHealthy || rr.Verdicts != 1 || rr.ExternalRepairs != 1 {
		b.problem("rank %d guard after repair: %+v, want healthy after one verdict repaired in place", k, rr)
	}
}
