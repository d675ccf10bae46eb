package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"merlin/internal/workloads"
)

// Op is one generated input. The program under test sees only these
// fields: the seed shapes the op list, never the campaigns themselves
// (every campaign samples its faults with seed 0, so pins stay valid).
type Op struct {
	Program   string `json:"program"`
	Structure string `json:"structure,omitempty"` // "" on screen: all of RF, SQ and L1D
	Strategy  string `json:"strategy,omitempty"`  // "" is the daemon's default, replay
	PhysRegs  int    `json:"phys_regs,omitempty"`
	SQEntries int    `json:"sq_entries,omitempty"`
	L1DBytes  int    `json:"l1d_bytes,omitempty"`
}

// strategy names the op's injection strategy, spelling out the default.
func (o Op) strategy() string {
	if o.Strategy == "" {
		return "replay"
	}
	return o.Strategy
}

// config names the op's core configuration ("base" for Table 1's
// baseline).
func (o Op) config() string {
	var parts []string
	if o.PhysRegs > 0 {
		parts = append(parts, fmt.Sprintf("phys_regs=%d", o.PhysRegs))
	}
	if o.SQEntries > 0 {
		parts = append(parts, fmt.Sprintf("sq_entries=%d", o.SQEntries))
	}
	if o.L1DBytes > 0 {
		parts = append(parts, fmt.Sprintf("l1d_bytes=%d", o.L1DBytes))
	}
	if len(parts) == 0 {
		return "base"
	}
	return strings.Join(parts, ",")
}

// label names the op in failure messages.
func (o Op) label() string {
	if o.Structure == "" {
		return o.pinKey()
	}
	return o.pinKey() + " (" + o.strategy() + ")"
}

// pinKey names the op's expected result in pins.json. The strategy is
// not part of it: every strategy must produce the same report.
func (o Op) pinKey() string {
	if o.Structure == "" {
		return "screen/" + o.Program
	}
	return o.Program + "/" + o.Structure + "/" + o.config()
}

// The workloads' input sets. A pass is one seed-shuffled permutation of a
// set; runs measure whole passes, so every seed issues the same multiset
// of ops and only their order differs.
var (
	// campaignPrograms span 6K to 79K golden cycles.
	campaignPrograms = []string{"sha", "qsort", "mcf", "gcc", "stringsearch", "caes", "cjpeg", "bzip2"}
	// daemonPrograms are small and mid-size programs (5K to 21K golden
	// cycles), so replay requests stay under a few seconds each.
	daemonPrograms = []string{"sha", "fft", "mcf", "stringsearch"}
	// daemonVariants are the non-baseline Table 1 configurations: 5 of a
	// pass's 41 requests, about 1 in 8. Each misses the artifact cache.
	daemonVariants = []Op{
		{Program: "sha", Structure: "RF", Strategy: "forked", PhysRegs: 128},
		{Program: "fft", Structure: "SQ", SQEntries: 32},
		{Program: "mcf", Structure: "L1D", Strategy: "checkpointed", L1DBytes: 16 << 10},
		{Program: "stringsearch", Structure: "RF", Strategy: "forked", PhysRegs: 64},
		{Program: "sha", Structure: "L1D", L1DBytes: 64 << 10},
	}
	structures = []string{"RF", "SQ", "L1D"}
	// daemonStrategies lists replay as "": requests leave it out.
	daemonStrategies = []string{"", "checkpointed", "forked"}
)

// passSet is one pass of a workload's inputs, in canonical order.
func passSet(workload string) []Op {
	var ops []Op
	switch workload {
	case "screen":
		for _, p := range workloads.Names("") {
			ops = append(ops, Op{Program: p})
		}
	case "campaign":
		for _, p := range campaignPrograms {
			for _, s := range structures {
				ops = append(ops, Op{Program: p, Structure: s, Strategy: "forked"})
			}
		}
	case "daemon", "fleet":
		for _, p := range daemonPrograms {
			for _, s := range structures {
				for _, st := range daemonStrategies {
					ops = append(ops, Op{Program: p, Structure: s, Strategy: st})
				}
			}
		}
		ops = append(ops, daemonVariants...)
	}
	return ops
}

// genOps is the seeded generator: passes seed-shuffled permutations of
// the workload's pass set, concatenated.
func genOps(workload string, seed int64, passes int) []Op {
	rng := rand.New(rand.NewSource(seed))
	var ops []Op
	for i := 0; i < passes; i++ {
		p := passSet(workload)
		rng.Shuffle(len(p), func(a, b int) { p[a], p[b] = p[b], p[a] })
		ops = append(ops, p...)
	}
	return ops
}

// opsDigest fingerprints an op list, so two runs can be shown to have
// issued the same traffic.
func opsDigest(ops []Op) string {
	raw, err := json.Marshal(ops)
	if err != nil {
		panic(err) // Op holds only strings and ints
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:8])
}
