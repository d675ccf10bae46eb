package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"merlin"
	"merlin/internal/campaign"
	"merlin/internal/cpu"
	"merlin/internal/fault"
	"merlin/internal/guestflow"
	"merlin/internal/lifetime"
	reduction "merlin/internal/merlin"
	"merlin/internal/sampling"
	"merlin/internal/workloads"
)

// This file runs the screen and campaign ops twice over: untraced through
// the public Session/Batch API, and traced by calling the same exported
// layer functions that Session and Batch call, in the same order, with a
// span around each call. Both paths must produce the same digest.

// layerCounts accumulates the per-layer work counts of traced ops.
type layerCounts struct {
	goldenCycles uint64
	goldenAlloc  uint64 // bytes allocated during golden runs
	buildAlloc   uint64 // bytes allocated during lifetime.Build
	events       int    // lifetime events fed to Build
	faults       int    // sampled faults
	rfFaults     int    // sampled RF faults on which the static pruner ran
	pruned       int    // of those, statically pruned
	postACE      int
	injected     int
	simCycles    uint64
	clones       int64
	reps         int                      // representatives (what Reduce selects for injection)
	injectTime   map[string]time.Duration // injection time per strategy
	injectOps    map[string]int           // ops per strategy
	injectWall   time.Duration            // the campaigns' own injection wall (cycles/s base)

	// Client-side counts of the daemon and fleet workloads.
	streamEvents                   int
	shards, remoteShards, requeues int
}

func newLayerCounts() *layerCounts {
	return &layerCounts{injectTime: map[string]time.Duration{}, injectOps: map[string]int{}}
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// screenUntraced is one screen op through the public API: a batch over
// RF, SQ and L1D with static pruning, Preprocess, then Reduce on each
// Session. No cache, no injection.
func screenUntraced(ctx context.Context, op Op) (*screenResult, error) {
	b, err := merlin.StartBatch(ctx, op.Program, merlin.WithStaticPrune())
	if err != nil {
		return nil, err
	}
	if err := b.Preprocess(ctx); err != nil {
		return nil, err
	}
	for _, s := range b.Sessions() {
		if _, err := s.Reduce(); err != nil {
			return nil, err
		}
	}
	a0 := b.Sessions()[0].Artifacts()
	res := &screenResult{Program: op.Program, Cycles: a0.Golden.Result.Cycles, Output: a0.Golden.Result.Output}
	for _, s := range b.Sessions() {
		a := s.Artifacts()
		res.Parts = append(res.Parts, newScreenPart(a.Analysis, len(a.Faults), a.StaticPruned, a.Red))
	}
	return res, nil
}

// newScreenPart collects one structure's screen products.
func newScreenPart(a *lifetime.Analysis, faults, pruned int, red *reduction.Reduction) screenPart {
	return screenPart{
		Structure:     a.Structure.String(),
		Intervals:     len(a.Intervals),
		Faults:        faults,
		ACEMasked:     red.ACEMasked,
		StaticPruned:  pruned,
		PostACE:       len(red.HitFaults),
		StepOneGroups: red.StepOneGroups,
		FinalGroups:   len(red.Groups),
		Reduced:       red.Reduced(),
		ACELikeAVF:    a.AVF(),
	}
}

// cpuConfig is the op's core configuration, built as merlind builds it
// from a request.
func (o Op) cpuConfig() cpu.Config {
	c := cpu.DefaultConfig()
	if o.PhysRegs > 0 {
		c = c.WithRF(o.PhysRegs)
	}
	if o.SQEntries > 0 {
		c = c.WithSQ(o.SQEntries)
	}
	if o.L1DBytes > 0 {
		c = c.WithL1D(o.L1DBytes)
	}
	return c
}

// campaignUntraced is one campaign op through the public API: a forked,
// two-worker Session.Run with no artifact or snapshot cache.
func campaignUntraced(ctx context.Context, op Op) (*merlin.Report, *merlin.Artifacts, error) {
	st, err := merlin.ParseStructure(op.Structure)
	if err != nil {
		return nil, nil, err
	}
	s, err := merlin.Start(ctx, op.Program, merlin.WithCPU(op.cpuConfig()),
		merlin.WithStructure(st), merlin.WithStrategy(merlin.StrategyForked), merlin.WithWorkers(2))
	if err != nil {
		return nil, nil, err
	}
	rep, err := s.Run(ctx)
	if err != nil {
		return nil, nil, err
	}
	return rep, s.Artifacts(), nil
}

// prepared is the traced twin of merlin.Artifacts: one structure's
// preprocessing products.
type prepared struct {
	structure lifetime.StructureID
	analysis  *lifetime.Analysis
	faults    []fault.Fault
	premasked []bool
	pruned    int
	red       *reduction.Reduction
}

// tracedPreprocess mirrors merlin's preprocessStructures without a cache:
// one golden run tracing every structure, then per structure
// lifetime.Build and sampling.Generate.
func tracedPreprocess(rec *Recorder, lc *layerCounts, opID, root int, runner *campaign.Runner, ss []lifetime.StructureID) (*campaign.Golden, []*prepared, error) {
	a0 := totalAlloc()
	sp := rec.Begin(opID, root, "cpu.golden")
	golden, err := runner.RunGolden(ss...)
	rec.End(sp)
	lc.goldenAlloc += totalAlloc() - a0
	if err != nil {
		return nil, nil, err
	}
	lc.goldenCycles += golden.Result.Cycles

	core := runner.NewCore()
	cycles := golden.Result.Cycles
	var out []*prepared
	for _, s := range ss {
		entries := core.StructureEntries(s)
		entryBits := core.StructureEntryBits(s)
		log := golden.Tracer.Log(s)
		a0 := totalAlloc()
		sp := rec.Begin(opID, root, "lifetime.build")
		analysis := lifetime.Build(log, s, entries, entryBits/8, cycles)
		rec.End(sp)
		lc.buildAlloc += totalAlloc() - a0
		lc.events += len(log.Events)

		sp = rec.Begin(opID, root, "sampling.generate")
		p := sampling.Baseline
		n := p.SampleSize(sampling.Population(entries, entryBits, cycles))
		faults := sampling.Generate(s, entries, entryBits, cycles, n, 0)
		rec.End(sp)
		lc.faults += len(faults)
		out = append(out, &prepared{structure: s, analysis: analysis, faults: faults})
	}
	return golden, out, nil
}

// tracedReduce mirrors Session.Reduce: the static pre-pruner on RF (with
// the session's per-fault cross-verification against the dynamic
// analysis), then reduction.Reduce.
func tracedReduce(rec *Recorder, lc *layerCounts, opID, root int, runner *campaign.Runner, golden *campaign.Golden, p *prepared, staticPrune bool) error {
	if staticPrune && p.structure == lifetime.StructRF {
		sp := rec.Begin(opID, root, "guestflow.analyze")
		g := guestflow.Analyze(runner.Prog)
		rec.End(sp)
		sp = rec.Begin(opID, root, "guestflow.prune")
		premasked, _ := guestflow.PruneRF(g, golden.Tracer.Log(lifetime.StructRF), p.faults)
		rec.End(sp)
		for i, pm := range premasked {
			if !pm {
				continue
			}
			f := p.faults[i]
			if _, ok := p.analysis.Find(f.Entry, f.Byte(), f.Cycle); ok {
				return fmt.Errorf("static/dynamic liveness disagreement on RF fault %d", i)
			}
			p.pruned++
		}
		p.premasked = premasked
		lc.rfFaults += len(p.faults)
		lc.pruned += p.pruned
	}
	sp := rec.Begin(opID, root, "reduce")
	p.red = reduction.Reduce(p.analysis, p.faults, reduction.Options{
		RepsPerGroup: 1, ByteGrouping: true, Premasked: p.premasked,
	})
	rec.End(sp)
	lc.postACE += len(p.red.HitFaults)
	lc.reps += p.red.ReducedCount()
	return nil
}

func newRunner(program string, workers int) (*campaign.Runner, error) {
	w, err := workloads.Get(program)
	if err != nil {
		return nil, err
	}
	r := campaign.NewRunner(campaign.Target{Cfg: cpu.DefaultConfig(), Prog: w.Program()})
	r.Workers = workers
	return r, r.Validate()
}

// screenTraced is the traced twin of screenUntraced.
func screenTraced(rec *Recorder, lc *layerCounts, opID int, op Op) (*screenResult, error) {
	root := rec.Begin(opID, 0, "op")
	defer rec.End(root)
	runner, err := newRunner(op.Program, 0)
	if err != nil {
		return nil, err
	}
	ss := []lifetime.StructureID{lifetime.StructRF, lifetime.StructSQ, lifetime.StructL1D}
	golden, preps, err := tracedPreprocess(rec, lc, opID, root, runner, ss)
	if err != nil {
		return nil, err
	}
	res := &screenResult{Program: op.Program, Cycles: golden.Result.Cycles, Output: golden.Result.Output}
	for _, p := range preps {
		if err := tracedReduce(rec, lc, opID, root, runner, golden, p, true); err != nil {
			return nil, err
		}
		res.Parts = append(res.Parts, newScreenPart(p.analysis, len(p.faults), p.pruned, p.red))
	}
	return res, nil
}

// ladderTimer is a pass-through campaign.SnapshotSource: it caches
// nothing (the campaign workload runs without a snapshot cache) and only
// times the checkpoint-ladder build the scheduler asks for.
type ladderTimer struct {
	rec        *Recorder
	op, parent int
}

func (l *ladderTimer) GetOrBuild(_ campaign.SnapshotKey, build func() *campaign.CheckpointSet) (*campaign.CheckpointSet, bool) {
	sp := l.rec.Begin(l.op, l.parent, "campaign.ladder")
	defer l.rec.End(sp)
	return build(), false
}

// campaignTraced is the traced twin of campaignUntraced: preprocess and
// reduce as above, then Runner.RunAllWith and Reduction.Extrapolate, and
// the report assembled as merlin's reportFrom does.
func campaignTraced(ctx context.Context, rec *Recorder, lc *layerCounts, opID int, op Op) (*merlin.Report, []uint64, int, error) {
	root := rec.Begin(opID, 0, "op")
	defer rec.End(root)
	st, err := merlin.ParseStructure(op.Structure)
	if err != nil {
		return nil, nil, 0, err
	}
	runner, err := newRunner(op.Program, 2)
	if err != nil {
		return nil, nil, 0, err
	}
	golden, preps, err := tracedPreprocess(rec, lc, opID, root, runner, []lifetime.StructureID{st})
	if err != nil {
		return nil, nil, 0, err
	}
	p := preps[0]
	if err := tracedReduce(rec, lc, opID, root, runner, golden, p, false); err != nil {
		return nil, nil, 0, err
	}

	strategy := merlin.StrategyForked
	inj := rec.Begin(opID, root, "campaign.inject."+strategy.String())
	runner.Snapshots = &ladderTimer{rec: rec, op: opID, parent: inj}
	res, err := runner.RunAllWith(ctx, strategy, p.red.Reduced(), &golden.Result, 0)
	injTime := rec.End(inj)
	if err != nil {
		return nil, nil, 0, err
	}
	sp := rec.Begin(opID, root, "reduce.extrapolate")
	dist := p.red.Extrapolate(res.Outcomes)
	rec.End(sp)

	core := runner.NewCore()
	bits := core.StructureEntries(st) * core.StructureEntryBits(st)
	rep := &merlin.Report{
		Workload:      op.Program,
		Structure:     st,
		GoldenCycles:  golden.Result.Cycles,
		InitialFaults: len(p.faults),
		ACEMasked:     p.red.ACEMasked,
		PostACE:       len(p.red.HitFaults),
		Injected:      res.Injected,
		Cancelled:     res.Cancelled,
		StepOneGroups: p.red.StepOneGroups,
		FinalGroups:   len(p.red.Groups),
		Dist:          dist,
		AVF:           dist.AVF(),
		FIT:           dist.FIT(bits, merlin.RawFITPerBit),
		ACELikeAVF:    p.analysis.AVF(),
		RepOutcomes:   res.Outcomes,
		SimCycles:     res.SimCycles,
		Clones:        res.Clones,
	}
	name := strategy.String()
	lc.injected += res.Injected
	lc.injectTime[name] += injTime
	lc.injectOps[name]++
	lc.injectWall += res.Wall
	lc.simCycles += res.SimCycles
	lc.clones += res.Clones
	return rep, golden.Result.Output, p.red.ReducedCount(), nil
}
