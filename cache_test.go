package merlin

import (
	"context"
	"strings"
	"testing"

	"merlin/internal/cpu"
)

// TestCacheBitIdenticalReports: a campaign run cold (no cache), cache-miss
// (populating), and cache-hit (served) must produce identical reports; the
// hit must skip the golden run.
func TestCacheBitIdenticalReports(t *testing.T) {
	opts := []Option{WithStructure(RF), WithFaults(300), WithSeed(11), WithStrategy(StrategyForked)}
	cold := runSession(t, "sha", opts...)

	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts = append(opts, WithCache(cache))

	miss := runSession(t, "sha", opts...)
	if miss.CacheHit {
		t.Fatal("first cached run reported a cache hit on an empty cache")
	}
	hit := runSession(t, "sha", opts...)
	if !hit.CacheHit {
		t.Fatal("second cached run missed; golden run was repeated")
	}

	for _, r := range []*Report{miss, hit} {
		if r.Dist != cold.Dist {
			t.Fatalf("Dist diverged: cold %v vs %v (hit=%v)", cold.Dist, r.Dist, r.CacheHit)
		}
		if r.GoldenCycles != cold.GoldenCycles || r.InitialFaults != cold.InitialFaults ||
			r.ACEMasked != cold.ACEMasked || r.Injected != cold.Injected ||
			r.FinalGroups != cold.FinalGroups || r.AVF != cold.AVF || r.FIT != cold.FIT {
			t.Fatalf("report diverged from cold run:\ncold %+v\ngot  %+v", cold, r)
		}
	}

	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("cache stats = %+v, want exactly 1 hit / 1 miss / 1 put", st)
	}
}

// TestCacheKeySeparation: changing the core configuration must not reuse
// another configuration's golden run.
func TestCacheKeySeparation(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{WithStructure(RF), WithFaults(50), WithSeed(3), WithCache(cache)}
	runSession(t, "sha", opts...)
	rep := runSession(t, "sha", append(opts, WithCPU(cpu.DefaultConfig().WithRF(128)))...)
	if rep.CacheHit {
		t.Fatal("campaign with a different core config was served another config's artifact")
	}
}

// TestConfigValidation: negative knobs reach the user as Start errors
// naming the knob, not as silently applied defaults.
func TestConfigValidation(t *testing.T) {
	for name, tc := range map[string]struct {
		opt  Option
		knob string
	}{
		"negative workers": {WithWorkers(-2), "Workers"},
		"negative faults":  {WithFaults(-1), "Faults"},
		"negative reps":    {WithRepsPerGroup(-3), "RepsPerGroup"},
		"negative ckpts":   {WithCheckpoints(-1), "Checkpoints"},
		"bad confidence":   {WithSampling(1.5, 0), "Confidence"},
	} {
		_, err := Start(context.Background(), "sha", WithStructure(RF), tc.opt)
		if err == nil || !strings.Contains(err.Error(), tc.knob) {
			t.Errorf("%s: Start error %v, want one naming %s", name, err, tc.knob)
		}
	}
}
