package campaign

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"merlin/internal/lifetime"
	"merlin/internal/sampling"
)

// TestPooledReplayMatchesRunFault: Replay's pooled reset-snapshot path
// must classify every fault exactly as the per-fault RunFault (fresh
// core, no pool, no early exit) does.
func TestPooledReplayMatchesRunFault(t *testing.T) {
	r := NewRunner(target(t, "sha"))
	g, err := r.RunGolden()
	if err != nil {
		t.Fatal(err)
	}
	c := r.NewCore()
	faults := strategyFaultList(c, lifetime.StructRF, g.Result.Cycles, 30, 5, nil)
	res := mustRun(t)(r.RunAllWith(context.Background(), Replay, faults, &g.Result, 0))
	for i, f := range faults {
		if want := r.RunFault(f, &g.Result); res.Outcomes[i] != want {
			t.Errorf("fault %v: pooled replay %v, RunFault %v", f, res.Outcomes[i], want)
		}
	}
	if res.Clones != int64(len(faults)) {
		t.Errorf("Clones = %d, want one per fault (%d)", res.Clones, len(faults))
	}
	if res.SimCycles == 0 {
		t.Error("SimCycles not recorded")
	}
	if res.CyclesPerSec() <= 0 {
		t.Error("CyclesPerSec not derivable")
	}
}

// TestRunFaultFromEarlyExitMatches: a fault run from a checkpoint rung
// with the masked-equivalence ladder exit (the Checkpointed campaign)
// must classify exactly as a full from-reset RunFault.
func TestRunFaultFromEarlyExitMatches(t *testing.T) {
	r := NewRunner(target(t, "qsort"))
	g, err := r.RunGolden()
	if err != nil {
		t.Fatal(err)
	}
	set := r.BuildCheckpoints(6, g.Result.Cycles)
	c := r.NewCore()
	faults := strategyFaultList(c, lifetime.StructL1D, g.Result.Cycles, 30, 9, set.cycles[1:])
	res := mustRun(t)(r.RunAllWith(context.Background(), Checkpointed, faults, &g.Result, 6))
	for i, f := range faults {
		if got, want := res.Outcomes[i], r.RunFault(f, &g.Result); got != want {
			t.Errorf("fault %v: checkpointed-with-exit %v, replay %v", f, got, want)
		}
	}
}

// TestCheckpointedCancelledWallClock: a campaign cancelled before it
// starts must still stamp Wall, so partial results always carry a
// wall-clock (regression: the dead-on-arrival path returned Wall == 0).
func TestCheckpointedCancelledWallClock(t *testing.T) {
	r := NewRunner(target(t, "sha"))
	g, err := r.RunGolden()
	if err != nil {
		t.Fatal(err)
	}
	faults := sampling.Generate(lifetime.StructRF, 256, 64, g.Result.Cycles, 10, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := r.RunAllWith(ctx, Checkpointed, faults, &g.Result, 4)
	if err == nil {
		t.Fatal("cancelled campaign returned no error")
	}
	if res.Wall <= 0 {
		t.Errorf("dead-on-arrival cancellation left Wall = %v, want > 0", res.Wall)
	}
	if res.Cancelled != len(faults) {
		t.Errorf("Cancelled = %d, want %d", res.Cancelled, len(faults))
	}
}

// mapSnapshotSource is a test double for the daemon's snapshot cache.
type mapSnapshotSource struct {
	mu     sync.Mutex
	sets   map[SnapshotKey]*CheckpointSet
	builds int
}

func (s *mapSnapshotSource) GetOrBuild(key SnapshotKey, build func() *CheckpointSet) (*CheckpointSet, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if set, ok := s.sets[key]; ok {
		return set, true
	}
	if s.sets == nil {
		s.sets = make(map[SnapshotKey]*CheckpointSet)
	}
	set := build()
	s.sets[key] = set
	s.builds++
	return set, false
}

// countingSource is a SnapshotSource that builds every ladder it is asked
// for and counts the requests.
type countingSource struct{ calls atomic.Int64 }

func (s *countingSource) GetOrBuild(_ SnapshotKey, build func() *CheckpointSet) (*CheckpointSet, bool) {
	s.calls.Add(1)
	return build(), false
}

// TestLadderRequests: an empty campaign simulates and clones nothing and
// never asks the SnapshotSource for a ladder, in every mode (regression:
// an empty checkpointed campaign replayed a whole golden run to build its
// ladder and reported that as SimCycles). A non-empty campaign asks
// exactly once when its ladder has rungs, and never for the reset-only
// ladder of Replay and truncated mode.
func TestLadderRequests(t *testing.T) {
	r := NewRunner(target(t, "sha"))
	g, err := r.RunGolden()
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{}
	r.Snapshots = src
	faults := sampling.Generate(lifetime.StructRF, 256, 64, g.Result.Cycles, 5, 19)
	want := map[string]int64{"replay": 0, "checkpointed": 1, "forked": 1, "truncated": 0}
	for _, mode := range campaignModes(t, r, g, 4) {
		src.calls.Store(0)
		empty := mustRun(t)(mode.run(context.Background(), nil))
		if empty.SimCycles != 0 || empty.Clones != 0 || src.calls.Load() != 0 {
			t.Errorf("%s: empty campaign simulated %d cycles, took %d clones, asked the source %d times; want 0, 0, 0",
				mode.name, empty.SimCycles, empty.Clones, src.calls.Load())
		}
		mustRun(t)(mode.run(context.Background(), faults))
		if got := src.calls.Load(); got != want[mode.name] {
			t.Errorf("%s: %d-fault campaign asked the source %d times, want %d", mode.name, len(faults), got, want[mode.name])
		}
	}
}

// TestSnapshotSourceSharing: with a SnapshotSource attached, repeat
// campaigns reuse one ladder (SnapshotHit set, one build), outcomes stay
// bit-identical, and both checkpointed and forked schedulers share the
// same cached sets per their distinct keys.
func TestSnapshotSourceSharing(t *testing.T) {
	r := NewRunner(target(t, "sha"))
	g, err := r.RunGolden()
	if err != nil {
		t.Fatal(err)
	}
	c := r.NewCore()
	faults := strategyFaultList(c, lifetime.StructRF, g.Result.Cycles, 25, 11, nil)
	want := mustRun(t)(r.RunAllWith(context.Background(), Replay, faults, &g.Result, 0))

	src := &mapSnapshotSource{}
	r.Snapshots = src
	for round := 0; round < 2; round++ {
		ck := mustRun(t)(r.RunAllWith(context.Background(), Checkpointed, faults, &g.Result, 4))
		fk := mustRun(t)(r.RunAllWith(context.Background(), Forked, faults, &g.Result, 0))
		if hit := round > 0; ck.SnapshotHit != hit || fk.SnapshotHit != hit {
			t.Errorf("round %d: SnapshotHit ckpt=%v forked=%v, want %v", round, ck.SnapshotHit, fk.SnapshotHit, hit)
		}
		for i := range faults {
			if ck.Outcomes[i] != want.Outcomes[i] || fk.Outcomes[i] != want.Outcomes[i] {
				t.Fatalf("round %d fault %d: outcomes diverge with shared snapshots", round, i)
			}
		}
	}
	if src.builds != 2 { // one ladder per (k, strategy) key: k=4 and ForkSyncPoints
		t.Errorf("ladder built %d times, want 2 (one per key)", src.builds)
	}
	if want.SnapshotHit {
		t.Error("replay strategy must never report a snapshot hit")
	}
}

// TestConcurrentCampaignsSharedSnapshots: concurrent campaigns over one
// Runner configuration and one shared source must agree with the serial
// outcomes; run under -race this exercises concurrent cloning of shared
// frozen ladders end-to-end.
func TestConcurrentCampaignsSharedSnapshots(t *testing.T) {
	src := &mapSnapshotSource{}
	base := NewRunner(target(t, "sha"))
	g, err := base.RunGolden()
	if err != nil {
		t.Fatal(err)
	}
	c := base.NewCore()
	faults := strategyFaultList(c, lifetime.StructRF, g.Result.Cycles, 20, 13, nil)
	want := mustRun(t)(base.RunAllWith(context.Background(), Replay, faults, &g.Result, 0))

	var wg sync.WaitGroup
	outcomes := make([]*Result, 4)
	for w := range outcomes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := NewRunner(target(t, "sha"))
			r.Snapshots = src
			r.Workers = 2
			res, err := r.RunAllWith(context.Background(), Forked, faults, &g.Result, 0)
			if err != nil {
				t.Error(err)
				return
			}
			outcomes[i] = res
		}(w)
	}
	wg.Wait()
	for i, res := range outcomes {
		if res == nil {
			continue
		}
		for j := range faults {
			if res.Outcomes[j] != want.Outcomes[j] {
				t.Fatalf("campaign %d fault %d: %v, want %v", i, j, res.Outcomes[j], want.Outcomes[j])
			}
		}
	}
}
