package solver

import "fmt"

// This file is the portfolio diversification recipe (ROADMAP item 3,
// HordeSat's within-host half of the hybrid): given a worker index, derive
// a deterministic per-worker tuning so K workers on one subproblem explore
// it in genuinely different orders. Worker 0 — the "pathfinder" — always
// runs the unmodified base configuration, so splits and checkpoints
// (which serve the pathfinder) behave exactly as a single-solver client
// would.

// Profile is one worker's diversification: the knobs it overrides on the
// client's base solver options. Profiles are pure data, generated
// deterministically from (worker, baseSeed) by ProfileFor, so a restored
// portfolio rebuilds the identical lineup.
type Profile struct {
	// Worker is the index this profile was generated for; 0 is the
	// pathfinder (identity profile).
	Worker int
	// Seed overrides Options.Seed (0 for the pathfinder, preserving
	// bit-exact single-solver behavior).
	Seed int64
	// Phase overrides Options.Phase.
	Phase PhaseMode
	// PhaseSaving overrides Options.PhaseSaving.
	PhaseSaving bool
	// DecayInterval overrides Options.DecayInterval.
	DecayInterval int
	// RestartPolicy/RestartBase override the restart schedule.
	RestartPolicy RestartPolicy
	RestartBase   int
	// ImportBudget bounds how many pool clauses the worker imports per
	// exchange round (the in-host analogue of the paper's share bound).
	ImportBudget int
	// ExportMaxLen bounds the length of clauses the worker publishes to
	// the in-host pool. Longer than the cluster share bound: intra-host
	// exchange is nearly free, so the pool accepts bulkier clauses.
	ExportMaxLen int
}

// seedMix is the golden-ratio multiplier used to derive per-worker seeds
// (splitmix64's increment), so adjacent workers get unrelated streams.
const seedMix = 0x9E3779B97F4A7C15

// Restart/phase/decay rotations for workers >= 1. The lineup cycles
// through genuinely different schedules rather than perturbing one knob:
// HordeSat's result is that structural diversity beats seed jitter.
var (
	divRestarts = []struct {
		policy RestartPolicy
		base   int
	}{
		{RestartLuby, 512},
		{RestartGeometric, 100},
		{RestartFixed, 1000},
		{RestartNone, 512},
	}
	divPhases = []PhaseMode{PhaseVSIDS, PhaseNeg, PhaseRand, PhasePos}
	divDecays = []int{256, 128, 512}
)

// ProfileFor returns worker w's diversification profile for a host whose
// base seed is baseSeed. Deterministic: same (w, baseSeed), same profile.
// Worker 0 is the identity profile — Apply returns the base options
// unchanged — so the pathfinder is bit-identical to a -threads=1 client.
func ProfileFor(w int, baseSeed int64) Profile {
	if w <= 0 {
		// The pathfinder keeps the base engine options untouched; only the
		// pool-exchange budgets (engine-external) are set.
		return Profile{Worker: 0, ImportBudget: 128, ExportMaxLen: 20}
	}
	seed := baseSeed ^ int64(uint64(w)*seedMix)
	if seed == 0 {
		seed = int64(uint64(w)*seedMix) | 1
	}
	r := divRestarts[(w-1)%len(divRestarts)]
	return Profile{
		Worker:        w,
		Seed:          seed,
		Phase:         divPhases[(w-1)%len(divPhases)],
		PhaseSaving:   w%2 == 0,
		DecayInterval: divDecays[(w-1)%len(divDecays)],
		RestartPolicy: r.policy,
		RestartBase:   r.base,
		ImportBudget:  64 + 32*((w-1)%3),
		ExportMaxLen:  20,
	}
}

// Apply overlays the profile on base and returns the worker's options.
// The pathfinder profile (Worker 0) returns base unchanged.
func (p Profile) Apply(base Options) Options {
	if p.Worker == 0 {
		return base
	}
	o := base
	o.Seed = p.Seed
	o.Phase = p.Phase
	o.PhaseSaving = p.PhaseSaving
	o.DecayInterval = p.DecayInterval
	o.RestartPolicy = p.RestartPolicy
	o.RestartBase = p.RestartBase
	return o
}

// String renders the profile for logs and the DESIGN.md table.
func (p Profile) String() string {
	if p.Worker == 0 {
		return "w0: pathfinder (base options)"
	}
	return fmt.Sprintf("w%d: seed=%#x phase=%s save=%v decay=%d restart=%s/%d import=%d export<=%d",
		p.Worker, uint64(p.Seed), p.Phase, p.PhaseSaving, p.DecayInterval,
		p.RestartPolicy, p.RestartBase, p.ImportBudget, p.ExportMaxLen)
}
