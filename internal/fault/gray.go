package fault

import (
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Gray-failure injection: layered on simnet's per-port Impairment, the
// injector adds episode scheduling, both-direction application, overlap
// bookkeeping and fault-event recording. Each direction's transition
// mutates only port-local state.

// peerSeedMix separates the two directions' impairment RNG streams (and
// successive episodes on the same port) without the caller having to manage
// seeds; the constant is the 64-bit golden ratio, an odd mixer.
const peerSeedMix = int64(-7046029254386353131)

// grayEntry is one scheduled impairment episode on one egress direction.
type grayEntry struct {
	imp    simnet.Impairment
	seed   int64
	active bool
}

// grayStack tracks the episodes targeting one egress direction, in
// scheduling order. When episodes overlap, the most recently scheduled
// active one wins (last-writer semantics, matching SetImpairment replace
// behaviour); when an episode ends, the port falls back to the next still-
// active entry instead of being silently marked healthy — the gray half of
// repair idempotence.
type grayStack struct {
	pt      *simnet.Port
	entries []*grayEntry
}

// apply installs the winning entry (or clears the impairment if none is
// active). Re-applying re-seeds the winner's RNG; that is deterministic —
// the re-seed happens at an episode boundary, which is itself a scheduled
// event — and models the link's error process changing when the fault
// condition changes.
func (gs *grayStack) apply() {
	for i := len(gs.entries) - 1; i >= 0; i-- {
		if e := gs.entries[i]; e.active {
			gs.pt.SetImpairment(e.imp, e.seed)
			return
		}
	}
	gs.pt.ClearImpairment()
}

func (in *Injector) grayFor(pt *simnet.Port) *grayStack {
	gs := in.grays[pt]
	if gs == nil {
		gs = &grayStack{pt: pt}
		in.grays[pt] = gs
	}
	return gs
}

// grayRecord books a gray transition on pt's link.
func (in *Injector) grayRecord(kind Kind, pt *simnet.Port) { in.record(kind, linkName(pt)) }

// degradeDir schedules one direction's episode.
// Only the primary direction records fault events (one LinkDegrade/
// LinkRepair pair per link-level episode, like LinkDown/LinkUp).
func (in *Injector) degradeDir(pt *simnet.Port, at, until sim.Time, imp simnet.Impairment, seed int64, primary bool) {
	gs := in.grayFor(pt)
	e := &grayEntry{imp: imp, seed: seed}
	gs.entries = append(gs.entries, e)
	eng := pt.Engine()
	eng.Schedule(at, func() {
		e.active = true
		gs.apply()
		if primary {
			in.grayRecord(LinkDegrade, pt)
		}
	})
	eng.Schedule(until, func() {
		e.active = false
		gs.apply()
		if primary {
			in.grayRecord(LinkRepair, pt)
		}
	})
}

// DegradeEpisode schedules a gray impairment on both directions of pt's link
// over [at, until). seed derives the episode's private loss/jitter RNG
// streams (the peer direction gets an independent stream).
func (in *Injector) DegradeEpisode(pt *simnet.Port, at, until sim.Time, imp simnet.Impairment, seed int64) {
	in.Stats.LinkDegrades++
	in.Stats.LinkRepairs++
	in.degradeDir(pt, at, until, imp, seed, true)
	if pt.Peer != nil {
		in.degradeDir(pt.Peer, at, until, imp, seed^peerSeedMix, false)
	}
}

// Degrade installs a gray impairment on both directions of pt's link now,
// until Repair.
func (in *Injector) Degrade(pt *simnet.Port, imp simnet.Impairment, seed int64) {
	in.Stats.LinkDegrades++
	for i, p := range []*simnet.Port{pt, pt.Peer} {
		if p == nil {
			continue
		}
		gs := in.grayFor(p)
		s := seed
		if i == 1 {
			s ^= peerSeedMix
		}
		gs.entries = append(gs.entries, &grayEntry{imp: imp, seed: s, active: true})
		gs.apply()
	}
	in.grayRecord(LinkDegrade, pt)
}

// Repair ends every active gray episode on pt's link (both directions). A
// repair racing an overlapping scheduled episode is safe: the episode's own
// end event finds its entry already inactive and the stack re-applies
// whatever is still in force.
func (in *Injector) Repair(pt *simnet.Port) {
	repaired := false
	for _, p := range []*simnet.Port{pt, pt.Peer} {
		if p == nil {
			continue
		}
		gs := in.grayFor(p)
		for _, e := range gs.entries {
			if e.active {
				e.active = false
				repaired = true
			}
		}
		gs.apply()
	}
	if repaired {
		in.Stats.LinkRepairs++
		in.grayRecord(LinkRepair, pt)
	}
}
