package main

import "fmt"

// runSelfTest shows that the harness's own checks catch the two ways a
// store can lose data: it plants one corrupted byte in the shadow copy
// (so the fleet serves bytes that differ from what was acknowledged),
// and it records a write as acknowledged without sending it to the fleet
// (a dropped write). Each fault is planted once before a full verify
// sweep and once before a short demand phase of the two clients, and
// each must be reported as exactly one corrupted read. It returns the
// process exit code.
func runSelfTest() int {
	w := workload{name: "selftest", sample: 1}
	in, err := genInputs(1, w.profile, fleetBlocks, fleetBands)
	if err != nil {
		fmt.Println("selftest:", err)
		return 1
	}
	b := newBench(in, 1)
	if _, err := b.setup(1); err != nil {
		fmt.Println("selftest:", err)
		return 1
	}
	buf := make([]byte, blockBytes)
	sweep := func() int64 {
		before := b.corrupt
		b.verifyAll(buf, nil, nil, -1)
		return b.corrupt - before
	}
	// Each demand phase runs demandOps operations per client. The
	// outage-repair inputs give each client a ring that first reads its
	// half of the blocks in order, so the phase starting at ring position
	// p reads blocks p .. p+demandOps-1 of client 0's half, each once.
	const demandOps = 256
	cl := b.newClients(w)
	demand := func() int64 {
		b.demandPhase(cl, 0, demandOps, 0)
		var n int64
		for _, c := range cl {
			n += c.chk.corrupt
			b.fold(c)
		}
		return n
	}
	ok := true
	report := func(what string, got, want int64) {
		status := "ok"
		if got != want {
			status = "MISSED"
			ok = false
		}
		fmt.Printf("selftest: %-52s %d corrupted reads reported, want %d: %s\n", what, got, want, status)
	}

	report("verify sweep, clean fleet", sweep(), 0)

	const corruptBlock, corruptByte = 4097, 13
	b.want(corruptBlock)[corruptByte] ^= 0x20
	report("verify sweep, one corrupted shadow byte", sweep(), 1)
	b.want(corruptBlock)[corruptByte] ^= 0x20

	const droppedBlock = 12345
	copy(b.want(droppedBlock), b.in.payload(7)) // acknowledged, never written
	report("verify sweep, one dropped write", sweep(), 1)
	b.write(droppedBlock, b.in.payload(7)) // now written: fleet and shadow agree

	report("demand phase, clean fleet", demand(), 0)

	b.want(demandOps + 5)[corruptByte] ^= 0x20
	report("demand phase, one corrupted shadow byte", demand(), 1)
	b.want(demandOps + 5)[corruptByte] ^= 0x20

	copy(b.want(2*demandOps+9), b.in.payload(7)) // acknowledged, never written
	report("demand phase, one dropped write", demand(), 1)

	if b.failed != 0 || len(b.problems) != 0 {
		fmt.Printf("selftest: %d failed ops, problems %v\n", b.failed, b.problems)
		ok = false
	}
	if !ok {
		return 1
	}
	fmt.Println("selftest: harness reports both planted faults on both paths")
	return 0
}
