package main

import "fmt"

// pinnedSeed is the default seed. The model and the bursty trace do not
// depend on the seed, so their values must equal the pins on every
// seed, bit for bit; the Section VII makespan is pinned on this seed.
const pinnedSeed = 1

const (
	pinnedMAE           = 0.11186694405754237
	pinnedTraceChecksum = "0298e1ca48aa042b"
	pinnedPaperMakespan = 4149.9209603972422
	pinnedFCFSMakespan  = 9631.8287154709124
	pinnedFCFSMissed    = 583
	pinnedSLOMakespan   = 9466.4383949493622
	pinnedSLOMissed     = 411
)

// checkPins compares the scheduling results with the pinned values.
func checkPins(o *schedOutcome, seed uint64) []string {
	var bad []string
	pin := func(what string, got, want any) {
		if got != want {
			bad = append(bad, fmt.Sprintf("pinned %s: got %v, want %v", what, got, want))
		}
	}
	pin("trace checksum", o.traceChecksum, pinnedTraceChecksum)
	if seed == pinnedSeed {
		pin("paper makespan", o.paper.res.MakespanSec, pinnedPaperMakespan)
	}
	pin("fcfs+model makespan", o.traceFCFS.res.MakespanSec, pinnedFCFSMakespan)
	pin("fcfs+model missed deadlines", o.traceFCFS.res.MissedDeadlines, pinnedFCFSMissed)
	pin("slo+model makespan", o.traceSLO.res.MakespanSec, pinnedSLOMakespan)
	pin("slo+model missed deadlines", o.traceSLO.res.MissedDeadlines, pinnedSLOMissed)
	return bad
}
