package campaign

import (
	"context"
	"fmt"

	"merlin/internal/cpu"
	"merlin/internal/fault"
	"merlin/internal/lifetime"
)

// TruncatedGolden is the fault-free reference for a run cut at a fixed
// cycle, mirroring the paper's Simpoint-interval experiments (§4.4.3.4):
// since the run does not finish, Masked/Unknown are decided by comparing
// the complete reachable state at the cut.
type TruncatedGolden struct {
	Cut    uint64
	Result cpu.RunResult
	Hash   uint64
	Tracer *lifetime.Tracer
}

// RunGoldenTruncated executes the fault-free run up to cut cycles and
// captures its architectural state digest.
func (r *Runner) RunGoldenTruncated(cut uint64, track ...lifetime.StructureID) (*TruncatedGolden, error) {
	c := r.NewCore()
	var tr *lifetime.Tracer
	if len(track) > 0 {
		tr = lifetime.NewTracer(track...)
		c.AttachTracer(tr)
	}
	res := c.Run(cut)
	if res.Halt != cpu.CycleLimit {
		return nil, fmt.Errorf("campaign: truncated golden of %q ended early: %v after %d cycles", r.Prog.Name, res.Halt, res.Cycles)
	}
	c.FlushDataCaches()
	return &TruncatedGolden{Cut: cut, Result: res, Hash: c.StateHash(), Tracer: tr}, nil
}

// RunFaultTruncated injects f on a fresh core, runs to the cut, and
// classifies with the paper's truncated scheme: Masked / DUE / Crash /
// Assert / Unknown. SDCs and Timeouts cannot be identified because the
// program never finishes; any fault whose effects are still present in
// the machine state at the cut is Unknown. It is the per-fault reference
// RunAllTruncated must match.
func (r *Runner) RunFaultTruncated(f fault.Fault, tg *TruncatedGolden) Outcome {
	return r.inject(r.NewCore(), f, nil, truncatedVerdict(tg))
}

// truncatedVerdict runs a faulty core to the cut and compares its state
// digest with the truncated golden run's. It takes no early exit, so it
// ignores the ladder.
func truncatedVerdict(tg *TruncatedGolden) verdict {
	return func(c *cpu.Core, _ *CheckpointSet) Outcome {
		res := c.Run(tg.Cut)
		switch res.Halt {
		case cpu.CycleLimit:
			// Still running at the cut, as the golden run is.
		case cpu.HaltOK:
			// The fault steered execution to completion before the
			// interval ended; its effect on the full program is
			// undecidable here.
			return Unknown
		default:
			return Crash
		}
		if !equalU64(res.Output, tg.Result.Output) {
			return Unknown // corrupted output already visible; still "not finished"
		}
		if !equalU32(res.ExcLog, tg.Result.ExcLog) {
			return DUE
		}
		c.FlushDataCaches()
		if c.StateHash() == tg.Hash {
			return Masked
		}
		return Unknown
	}
}

// RunAllTruncated is the campaign engine in truncated mode: every fault
// is replayed from the reset state (a k=0 ladder, never asked of
// Snapshots) and classified by truncatedVerdict. It shares RunAllWith's
// worker pool, OnOutcome reporting, metrics and cancellation contract.
func (r *Runner) RunAllTruncated(ctx context.Context, faults []fault.Fault, tg *TruncatedGolden) (*Result, error) {
	return r.engine(ctx, faults, plan{}, tg.Cut, truncatedVerdict(tg))
}
