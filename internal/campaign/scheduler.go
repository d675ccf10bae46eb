package campaign

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"merlin/internal/cpu"
	"merlin/internal/fault"
)

// Strategy selects how injection runs reproduce the pre-fault execution
// prefix. All strategies are bit-identical in outcome; they differ only in
// how much of the golden run is re-simulated per fault.
type Strategy uint8

const (
	// Replay re-executes every injection run from reset: O(F x avg_cycle)
	// pre-fault simulation. The comprehensive, assumption-free baseline.
	Replay Strategy = iota
	// Checkpointed replays each injection from the nearest of k frozen
	// mid-run snapshots (Chatzidimitriou & Gizopoulos, ISPASS 2016):
	// O(F x avg_cycle/(k+1)) pre-fault simulation.
	Checkpointed
	// Forked drives one sweep core through the golden run exactly once
	// and forks a clone per fault at its injection cycle: O(golden_cycles
	// + F x clone) pre-fault work, the fastest of the three.
	Forked
	numStrategies
)

var strategyNames = [numStrategies]string{"replay", "checkpointed", "forked"}

// String returns the flag-style lowercase name.
func (s Strategy) String() string {
	if int(s) < len(strategyNames) {
		return strategyNames[s]
	}
	return fmt.Sprintf("strategy(%d)", uint8(s))
}

// ParseStrategy maps a flag value to a Strategy, case-insensitively.
func ParseStrategy(name string) (Strategy, error) {
	for s, n := range strategyNames {
		if strings.EqualFold(name, n) {
			return Strategy(s), nil
		}
	}
	return Replay, fmt.Errorf("unknown injection strategy %q (want replay, checkpointed, or forked)", name)
}

// MarshalText renders the flag-style name, so JSON carrying a Strategy
// reads "forked" instead of a bare int.
func (s Strategy) MarshalText() ([]byte, error) {
	if int(s) >= len(strategyNames) {
		return nil, fmt.Errorf("cannot marshal unknown strategy %d", uint8(s))
	}
	return []byte(strategyNames[s]), nil
}

// UnmarshalText parses a strategy name case-insensitively, round-tripping
// MarshalText.
func (s *Strategy) UnmarshalText(text []byte) error {
	v, err := ParseStrategy(string(text))
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// DefaultCheckpoints is the snapshot count RunAllWith uses when the
// Checkpointed strategy is selected without an explicit k.
const DefaultCheckpoints = 8

// ForkSyncPoints is the rung count of the Forked strategy's ladder. The
// rungs serve double duty: the sweep re-roots its copy-on-write lineage
// at each one, and faulty continuations compare their state against them
// to exit early once a fault provably converged back to the golden run.
const ForkSyncPoints = 24

// plan is a Strategy as data: how many mid-run rungs its checkpoint ladder
// holds and which producer brings each fault's core to its injection
// cycle.
//
//	Strategy      rungs                      producer
//	Replay        0 (reset state only)       in-order
//	Checkpointed  checkpoints or default     in-order
//	Forked        ForkSyncPoints             sweep
//
// In-order: faults go out in input order, and each worker clones
// ladder.before(fc) and steps it to fc-1. Sweep: one core walks the
// golden run once in fault-cycle order, re-roots on every rung it
// crosses, and forks a clone per fault at fc-1.
type plan struct {
	rungs int
	sweep bool
}

// plan resolves s to its ladder and producer. checkpoints only matters to
// Checkpointed (<=0 means DefaultCheckpoints); unknown values replay.
func (s Strategy) plan(checkpoints int) plan {
	switch s {
	case Checkpointed:
		if checkpoints <= 0 {
			checkpoints = DefaultCheckpoints
		}
		return plan{rungs: checkpoints}
	case Forked:
		return plan{rungs: ForkSyncPoints, sweep: true}
	}
	return plan{}
}

// RunAllWith injects every fault with strategy s and classifies each
// against the golden run; outcomes are in input order and identical for
// every strategy. checkpoints is only consulted by Checkpointed (<=0
// means DefaultCheckpoints). Replay's ladder has no rung past any fault,
// so every Replay run simulates to its natural end with no early exit.
// The campaign observes ctx between injections: on cancellation the
// partial Result comes back together with ctx.Err().
func (r *Runner) RunAllWith(ctx context.Context, s Strategy, faults []fault.Fault, golden *cpu.RunResult, checkpoints int) (*Result, error) {
	return r.engine(ctx, faults, s.plan(checkpoints), golden.Cycles, r.fullVerdict(golden))
}

// engine is the one scheduler behind every campaign. It resolves the
// plan's ladder, starts one bounded worker pool, and dispatches each fault
// to it with the plan's producer; workers apply the fault, classify it
// with v and report it through OnOutcome. The ladder build replays a
// golden run and cannot be interrupted, so an empty or dead-on-arrival
// campaign skips it and simulates nothing.
//
// Dispatch observes ctx between faults: once it is done no new fault
// starts, in-flight faults (at most one per worker, plus under the sweep
// one handed-off clone) finish classification, the rest stay Cancelled,
// and the partial Result comes back with ctx.Err(). The sweep holds at
// most MaxForks clones in flight (default 2 x workers), blocking until a
// worker retires one, so faults clustered late in the run cannot pile up
// machine snapshots in memory.
//
// Wall, Serial, Clones, CloneTime and SimCycles are stamped here and
// nowhere else. The ladder build and the sweep are shared pre-fault work,
// counted once in Serial and SimCycles.
func (r *Runner) engine(ctx context.Context, faults []fault.Fault, p plan, goldenCycles uint64, v verdict) (*Result, error) {
	res := newResult(len(faults))
	start := time.Now()
	if len(faults) == 0 || ctx.Err() != nil {
		res.Wall = time.Since(start)
		return res, res.finalize(ctx)
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(faults))
	maxForks := r.MaxForks
	if maxForks <= 0 {
		maxForks = 2 * workers
	}

	var m runMetrics
	var serialNS atomic.Int64
	pool := r.clonePool()
	ladder, hit := r.ladder(p.rungs, goldenCycles)
	if !hit {
		m.simCycles.Add(ladder.LastCycle())
	}
	res.SnapshotHit = hit
	serialNS.Add(int64(time.Since(start)))

	// A job is one fault index; the sweep also hands over the fault's
	// pre-injection clone, which the in-order producer leaves to the
	// worker.
	type job struct {
		idx  int
		core *cpu.Core
	}
	jobs := make(chan job)
	live := make(chan struct{}, maxForks) // the sweep's clone budget
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				t0 := time.Now()
				f := faults[j.idx]
				c := j.core
				if c == nil {
					c = m.clone(pool, ladder.before(f.Cycle))
				}
				from := c.Cycle()
				o := r.inject(c, f, ladder, v)
				m.simCycles.Add(c.Cycle() - from)
				pool.Release(c)
				res.Outcomes[j.idx] = o
				serialNS.Add(int64(time.Since(t0)))
				r.emit(j.idx, f, o)
				if p.sweep {
					<-live
				}
			}
		}()
	}

	var order []int
	var sweep *cpu.Core
	var sweepFrom uint64
	rung := 1 // the sweep's next uncrossed ladder rung
	if p.sweep {
		order = fault.SortedIndices(faults)
		sweep = m.clone(pool, ladder.cores[0])
	}
	t0 := time.Now()
	done := ctx.Done()
dispatch:
	for i := range faults {
		// Non-blocking cancellation check first: with a worker ready AND
		// ctx done, a bare two-case select picks at random and could keep
		// dispatching past cancellation.
		select {
		case <-done:
			break dispatch
		default:
		}
		j := job{idx: i}
		if p.sweep {
			j.idx = order[i]
			fc := faults[j.idx].Cycle
			// Crossing rungs, re-root on a clone of the latest one —
			// bit-identical state by determinism — so the copy-on-write
			// pages the forks share with the ladder stay shallow and
			// state comparisons skip everything the segment never wrote.
			root := -1
			for ; rung < len(ladder.cycles) && ladder.cycles[rung] < fc; rung++ {
				root = rung
			}
			if root >= 0 {
				m.simCycles.Add(sweep.Cycle() - sweepFrom)
				pool.Release(sweep)
				sweep = m.clone(pool, ladder.cores[root])
				sweepFrom = sweep.Cycle()
			}
			for sweep.Cycle()+1 < fc && sweep.Halted() == cpu.Running {
				sweep.Step()
			}
			// Taking a clone slot can block on busy workers; observe
			// cancellation here too.
			select {
			case live <- struct{}{}:
			case <-done:
				break dispatch
			}
			j.core = m.clone(pool, sweep)
		}
		select {
		case jobs <- j:
		case <-done:
			if j.core != nil {
				pool.Release(j.core)
			}
			break dispatch
		}
	}
	close(jobs)
	if p.sweep {
		m.simCycles.Add(sweep.Cycle() - sweepFrom)
		serialNS.Add(int64(time.Since(t0)))
	}
	wg.Wait()
	if sweep != nil {
		pool.Release(sweep)
	}

	res.Wall = time.Since(start)
	res.Serial = time.Duration(serialNS.Load())
	res.Clones = m.clones.Load()
	res.CloneTime = time.Duration(m.cloneNS.Load())
	res.SimCycles = m.simCycles.Load()
	return res, res.finalize(ctx)
}
