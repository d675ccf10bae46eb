package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"

	"merlin"
	"merlin/internal/fault"
)

// pinsJSON maps each op's pin key to the digest of its expected result,
// recorded with --record-pins. A digest covers every result field that
// does not depend on timing or on the injection strategy.
//
//go:embed pins.json
var pinsJSON []byte

// screenPart is one structure's share of a screen op's products.
type screenPart struct {
	Structure     string
	Intervals     int
	Faults        int
	ACEMasked     int
	StaticPruned  int
	PostACE       int
	StepOneGroups int
	FinalGroups   int
	Reduced       []fault.Fault
	ACELikeAVF    float64
}

// screenResult is what a screen op produces: the golden run and, per
// structure, the ACE-like analysis, fault list and reduction.
type screenResult struct {
	Program string
	Cycles  uint64
	Output  []uint64
	Parts   []screenPart
}

func digestOf(v any) string {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of numbers, strings and slices reach here
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:8])
}

func (r *screenResult) digest() string { return digestOf(r) }

// reportDigest covers the strategy- and timing-independent fields of a
// campaign report. Floats go through encoding/json, whose shortest
// round-trip form makes the digest exact.
func reportDigest(r *merlin.Report) string {
	return digestOf(struct {
		Workload, Structure                    string
		GoldenCycles                           uint64
		InitialFaults, ACEMasked, StaticPruned int
		PostACE, Injected, Cancelled           int
		StepOneGroups, FinalGroups             int
		Dist                                   merlin.Dist
		AVF, ACELikeAVF                        float64
		RepOutcomes                            []merlin.Outcome
	}{
		r.Workload, r.Structure.String(), r.GoldenCycles,
		r.InitialFaults, r.ACEMasked, r.StaticPruned,
		r.PostACE, r.Injected, r.Cancelled,
		r.StepOneGroups, r.FinalGroups,
		r.Dist, r.AVF, r.ACELikeAVF, r.RepOutcomes,
	})
}

// checker is the output oracle. It is safe for concurrent use.
type checker struct {
	mu       sync.Mutex
	pins     map[string]string
	record   bool              // --record-pins: collect digests instead of comparing
	seen     map[string]string // pin key -> first digest this run (cross-strategy check)
	failures []string
}

func newChecker(record bool) (*checker, error) {
	c := &checker{pins: map[string]string{}, record: record, seen: map[string]string{}}
	if !record {
		if err := json.Unmarshal(pinsJSON, &c.pins); err != nil {
			return nil, fmt.Errorf("pins.json: %w", err)
		}
	}
	return c, nil
}

func (c *checker) failf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

// digest checks one op's result digest against its pin and against every
// other result this run produced for the same input (under another
// strategy, or in the traced twin of the op). It reports whether all
// agreed.
func (c *checker) digest(op Op, got string) bool {
	key := op.pinKey()
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.seen[key]; ok && prev != got {
		c.failures = append(c.failures, fmt.Sprintf("%s: digest %s differs from %s produced earlier in this run",
			op.label(), got, prev))
		return false
	}
	c.seen[key] = got
	if c.record {
		c.pins[key] = got
		return true
	}
	want, ok := c.pins[key]
	if !ok {
		c.failures = append(c.failures, fmt.Sprintf("%s: no pinned digest", key))
		return false
	}
	if want != got {
		c.failures = append(c.failures, fmt.Sprintf("%s: digest %s, pinned %s", op.label(), got, want))
		return false
	}
	return true
}

// output checks a golden run's architectural output against the
// workload's pure-Go reference model.
func (c *checker) output(op Op, got, want []uint64) bool {
	if slices.Equal(got, want) {
		return true
	}
	c.failf("%s: golden output (%d values) differs from Workload.Reference() (%d values)", op.Program, len(got), len(want))
	return false
}

// report checks a campaign report's internal invariants.
func (c *checker) report(op Op, r *merlin.Report, reduced int) bool {
	ok := true
	if t := r.Dist.Total(); t != r.InitialFaults {
		c.failf("%s: Dist.Total() %d != InitialFaults %d", op.pinKey(), t, r.InitialFaults)
		ok = false
	}
	if r.Injected != reduced || len(r.RepOutcomes) != reduced {
		c.failf("%s: Injected %d, %d rep outcomes, want ReducedCount() %d", op.pinKey(), r.Injected, len(r.RepOutcomes), reduced)
		ok = false
	}
	return ok
}

// screen checks a screen op's invariants.
func (c *checker) screen(op Op, r *screenResult) bool {
	ok := true
	for _, p := range r.Parts {
		if p.ACEMasked+p.PostACE != p.Faults {
			c.failf("%s/%s: ACE-masked %d + post-ACE %d != %d faults", op.Program, p.Structure, p.ACEMasked, p.PostACE, p.Faults)
			ok = false
		}
		if len(p.Reduced) != p.FinalGroups {
			c.failf("%s/%s: %d representatives for %d groups", op.Program, p.Structure, len(p.Reduced), p.FinalGroups)
			ok = false
		}
	}
	return ok
}

// writePins stores the digests collected under --record-pins.
func (c *checker) writePins(path string) error {
	raw, err := json.MarshalIndent(c.pins, "", "  ") // encoding/json sorts map keys
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
