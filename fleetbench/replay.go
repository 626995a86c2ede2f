package main

import (
	"errors"
	"fmt"

	"chipkillpm/internal/core"
	"chipkillpm/internal/fleet"
)

const (
	replayOps     = 1 << 15 // client-0 ops replayed through every layer
	replayBatch   = 64      // ops per replay span
	patrolCalls   = 32      // PatrolScrub calls timed
	erasureBlocks = 1024    // blocks erasure-decoded with one chip erased
)

// replayTimes holds the per-layer costs the replay measured, in ns per
// operation unless the name says otherwise.
type replayTimes struct {
	fleetRead, engineRead, coreRead, rankGather, rsCheck, rsDecode   float64
	fleetWrite, engineWrite, coreWrite, rankWriteXOR, bchEncodeDelta float64
	rsErasure                                                        float64
	patrolUS, bchDecodeUS                                            float64
}

// replay sends the workload's inputs straight to each layer's public
// functions. A second fleet is built from the same seed, populated with
// the measured fleet's final contents, given the same replicated bands
// and the workload's drift; then client 0's first replayOps operations
// are replayed in batches of replayBatch, each batch once per layer:
//
//	reads:  fleet.ReadBlockInto, engine.ReadBlockInto, core
//	        Controller.ReadBlockInto, rank.ReadBlockRawInto, rs.Check
//	        (the read layers in a rotating order, so no layer always
//	        runs on caches the previous one warmed);
//	writes: fleet.WriteBlock, engine.WriteBlock, core WriteBlock,
//	        rank.WriteBlockXOR, bch.EncodeDeltaInto, each layer writing
//	        its own variant of the payload so every write changes data.
//
// Blocks whose raw read fails rs.Check are then decoded with
// rs.DecodeLimited, a slice of blocks with one chip erased with
// rs.Decode, the patrol is timed through engine.PatrolScrub, and every
// VLEW of one rank is decoded with bch.Decode after a week-long outage.
// Each span covers one batch on one layer; per-op cost is span time over
// ops. A layer's self time is its cost minus the next layer's over the
// same inputs.
func (b *bench) replay(w workload, tr *tracer, parent int32, drift float64, replicated []int64) (replayTimes, error) {
	var out replayTimes
	sp := tr.begin(spReplay, parent)
	defer tr.end(sp)

	f, err := fleet.New(b.cfg)
	if err != nil {
		return out, fmt.Errorf("replay fleet: %w", err)
	}
	// The replay has its own shadow: it starts from the measured fleet's
	// final contents and follows the replay's writes.
	chk := &checker{shadow: append([]byte(nil), b.shadow...)}
	defer b.add(chk)
	want := chk.want
	for blk := int64(0); blk < f.Blocks(); blk++ {
		if err := f.WriteBlockInitial(blk, want(blk)); err != nil {
			return out, fmt.Errorf("replay populate: %w", err)
		}
	}
	for _, band := range replicated {
		// Slots are handed out in replication order, which differs from
		// the measured fleet's, so a full pool may not fit every band.
		if err := f.ReplicateBand(band); err != nil && !errors.Is(err, fleet.ErrNoReplica) {
			return out, fmt.Errorf("replay replicate band %d: %w", band, err)
		}
	}
	if w.drift {
		for r := 0; r < f.NumRanks(); r++ {
			rk := f.Rank(r)
			f.Engine(r).Quiesce(func() { rk.InjectRetentionErrors(runtimeRBER) })
		}
	}
	ctrls := make([]*core.Controller, f.NumRanks())
	for r := range ctrls {
		if ctrls[r], err = core.NewController(f.Rank(r), core.Config{Threshold: b.cfg.Threshold}, nil); err != nil {
			return out, fmt.Errorf("replay controller: %w", err)
		}
	}
	code := ctrls[0].RS()
	vlew := f.Rank(0).Config().VLEWCode

	// locate mirrors the fleet's documented placement: band b lives on
	// rank b mod ranks, as that rank's local band b / ranks.
	locate := func(blk int64) (int, int64) {
		band := blk / bandBlocks
		return int(band % numRanks), (band/numRanks)*bandBlocks + blk%bandBlocks
	}
	errs := make([]error, replayBatch)
	bufs := make([][]byte, replayBatch)
	checks := make([][]byte, replayBatch)
	datas := make([][]byte, replayBatch)
	dChecks := make([][]byte, replayBatch)
	for i := range bufs {
		bufs[i] = make([]byte, blockBytes)
		checks[i] = make([]byte, code.R())
		datas[i] = make([]byte, blockBytes)
		dChecks[i] = make([]byte, code.R())
	}
	parity := make([]byte, vlew.ParityBytes())
	var dirty [][2][]byte // raw blocks failing rs.Check: data, check
	var st [numSpanNames]spanStat
	timed := func(name int, n int, fn func(i int)) {
		s := tr.begin(name, sp)
		for i := 0; i < n; i++ {
			fn(i)
		}
		tr.endBatch(s, n)
		if tr != nil {
			st[name].ops += int64(n)
			st[name].ns += tr.spans[s].end - tr.spans[s].start
		}
	}
	// Served reads are checked after their span, so the comparison is not
	// part of any layer's time.
	checkServed := func(blks []int64) {
		for i, blk := range blks {
			chk.served(blk, bufs[i], errs[i])
		}
	}

	ring := b.in.rings[0]
	n := min(replayOps, len(ring))
	var rb, wb []int64
	var wp []int32
	for chunk := 0; chunk*replayBatch < n; chunk++ {
		rb, wb, wp = rb[:0], wb[:0], wp[:0]
		for _, o := range ring[chunk*replayBatch : min((chunk+1)*replayBatch, n)] {
			if o.payload < 0 {
				rb = append(rb, int64(o.block))
			} else {
				wb = append(wb, int64(o.block))
				wp = append(wp, o.payload)
			}
		}
		for k := 0; k < 4 && len(rb) > 0; k++ {
			switch (chunk + k) % 4 {
			case 0:
				timed(spReplayFleetRead, len(rb), func(i int) { errs[i] = f.ReadBlockInto(rb[i], bufs[i]) })
				checkServed(rb)
			case 1:
				timed(spEngineRead, len(rb), func(i int) {
					r, local := locate(rb[i])
					errs[i] = f.Engine(r).ReadBlockInto(local, bufs[i])
				})
				checkServed(rb)
			case 2:
				timed(spCoreRead, len(rb), func(i int) {
					r, local := locate(rb[i])
					errs[i] = ctrls[r].ReadBlockInto(local, bufs[i])
				})
				checkServed(rb)
			case 3:
				timed(spRankGather, len(rb), func(i int) {
					r, local := locate(rb[i])
					f.Rank(r).ReadBlockRawInto(local, datas[i], checks[i])
				})
				clean := make([]bool, len(rb))
				timed(spRSCheck, len(rb), func(i int) { clean[i] = code.Check(datas[i], checks[i]) })
				for i, ok := range clean {
					if !ok {
						dirty = append(dirty, [2][]byte{append([]byte(nil), datas[i]...), append([]byte(nil), checks[i]...)})
					}
				}
			}
		}
		if len(wb) == 0 {
			continue
		}
		// Each layer writes payload ^ its own mask, so consecutive layers
		// always change the block.
		variant := func(mask byte) {
			for i := range wb {
				p := b.in.payload(wp[i])
				for j := range datas[i] {
					datas[i][j] = p[j] ^ mask
				}
			}
		}
		applied := func(data [][]byte) {
			for i, blk := range wb {
				chk.acked(blk, data[i], errs[i])
			}
		}
		variant(0x11)
		timed(spReplayFleetWrite, len(wb), func(i int) { errs[i] = f.WriteBlock(wb[i], datas[i]) })
		applied(datas)
		variant(0x22)
		timed(spEngineWrite, len(wb), func(i int) {
			r, local := locate(wb[i])
			errs[i] = f.Engine(r).WriteBlock(local, datas[i])
		})
		applied(datas)
		variant(0x33)
		timed(spCoreWrite, len(wb), func(i int) {
			r, local := locate(wb[i])
			errs[i] = ctrls[r].WriteBlock(local, datas[i])
		})
		applied(datas)
		// The rank takes the bitwise sum of old and new data and of their
		// RS check bytes; compute both before the span, in op order. A
		// block written twice in one batch takes its second delta against
		// its first write, so the shadow follows each write as it is made.
		variant(0x44)
		for i, blk := range wb {
			old := want(blk)
			oc, nc := code.Encode(old), code.Encode(datas[i])
			for j := range nc {
				dChecks[i][j] = oc[j] ^ nc[j]
			}
			copy(bufs[i], datas[i])
			for j := range datas[i] {
				datas[i][j] ^= old[j]
			}
			copy(old, bufs[i])
		}
		timed(spRankWriteXOR, len(wb), func(i int) {
			r, local := locate(wb[i])
			f.Rank(r).WriteBlockXOR(local, datas[i], dChecks[i])
			errs[i] = nil
		})
		applied(bufs)
		// The chip-side code update for chip 0's 8-byte slice of each
		// write delta, at its bit offset within the VLEW.
		timed(spBCHEncodeDelta, len(wb), func(i int) {
			r, local := locate(wb[i])
			col := f.Rank(r).Locate(local).Col % f.Rank(r).Config().Geometry.VLEWDataBytes
			vlew.EncodeDeltaInto(parity, datas[i][:8], col*8)
		})
	}

	// Every block must read back as the replay last wrote it.
	for blk := int64(0); blk < f.Blocks(); blk++ {
		chk.served(blk, bufs[0], f.ReadBlockInto(blk, bufs[0]))
	}

	for start := 0; start < len(dirty); start += replayBatch {
		batch := dirty[start:min(start+replayBatch, len(dirty))]
		for i, d := range batch {
			copy(datas[i], d[0])
			copy(checks[i], d[1])
		}
		timed(spRSDecode, len(batch), func(i int) {
			_, _ = code.DecodeLimited(datas[i], checks[i], b.cfg.Threshold) // over-threshold blocks are the VLEW fallback's
		})
	}

	const chip = 3
	erasures := make([]int, 8)
	for i := range erasures {
		erasures[i] = chip*8 + i
	}
	for start := int64(0); start < erasureBlocks; start += replayBatch {
		for i := range datas {
			copy(datas[i], want(start+int64(i)))
			copy(checks[i], code.Encode(datas[i]))
			clear(datas[i][chip*8 : chip*8+8])
		}
		timed(spRSErasure, replayBatch, func(i int) { _, errs[i] = code.Decode(datas[i], checks[i], erasures) })
		for i := range datas {
			chk.served(start+int64(i), datas[i], errs[i])
		}
	}

	pos := int64(0)
	e0, r0 := f.Engine(0), f.Rank(0)
	for i := 0; i < patrolCalls; i++ {
		if drift > 0 {
			e0.Quiesce(func() { r0.InjectRetentionErrors(drift) })
		}
		timed(spEnginePatrol, 1, func(int) { pos, _ = e0.PatrolScrub(pos, patrolUnits) })
	}

	e0.Quiesce(func() { r0.InjectRetentionErrors(outageRBER) })
	g := r0.Config().Geometry
	var vd, vc [][]byte
	for ci := 0; ci < r0.NumChips(); ci++ {
		for bank := 0; bank < g.Banks; bank++ {
			for row := 0; row < g.RowsPerBank; row++ {
				for v := 0; v < g.VLEWsPerRow(); v++ {
					d, c := make([]byte, g.VLEWDataBytes), make([]byte, g.VLEWCodeBytes)
					r0.Chip(ci).ReadVLEWInto(d, c, bank, row, v)
					vd, vc = append(vd, d), append(vc, c[:vlew.ParityBytes()])
				}
			}
		}
	}
	for start := 0; start < len(vd); start += replayBatch {
		end := min(start+replayBatch, len(vd))
		errs := 0
		timed(spBCHDecode, end-start, func(i int) {
			if _, err := vlew.Decode(vd[start+i], vc[start+i]); err != nil {
				errs++
			}
		})
		if errs > 0 {
			b.problem("replay: %d of VLEWs %d..%d failed to decode at RBER %.0e", errs, start, end, outageRBER)
		}
	}

	out = replayTimes{
		fleetRead: st[spReplayFleetRead].nsPerOp(), engineRead: st[spEngineRead].nsPerOp(),
		coreRead: st[spCoreRead].nsPerOp(), rankGather: st[spRankGather].nsPerOp(),
		rsCheck: st[spRSCheck].nsPerOp(), rsDecode: st[spRSDecode].nsPerOp(),
		fleetWrite: st[spReplayFleetWrite].nsPerOp(), engineWrite: st[spEngineWrite].nsPerOp(),
		coreWrite: st[spCoreWrite].nsPerOp(), rankWriteXOR: st[spRankWriteXOR].nsPerOp(),
		bchEncodeDelta: st[spBCHEncodeDelta].nsPerOp(), rsErasure: st[spRSErasure].nsPerOp(),
		patrolUS:    st[spEnginePatrol].nsPerOp() / 1e3,
		bchDecodeUS: st[spBCHDecode].nsPerOp() / 1e3,
	}
	return out, nil
}

// replicatedBands lists the fleet bands with a live replica.
func replicatedBands(f *fleet.Fleet) []int64 {
	var out []int64
	for band := int64(0); band < f.Bands(); band++ {
		if f.BandReplicated(band * f.BandBlocks()) {
			out = append(out, band)
		}
	}
	return out
}
