package main

import "time"

// layerSpec is one per-layer metric. BENCHMARK.json's per_layer list
// mirrors this table (a test keeps them in step).
type layerSpec struct {
	name, unit, better string
}

// layerSpecs lists the traced run's metrics. Times ending in _ms are per
// op (summed over the op's calls into the layer) unless the name says
// otherwise; a layer a workload does not cross reads 0.
var layerSpecs = []layerSpec{
	{"cpu.golden_ms", "ms", "lower"},
	{"cpu.golden_cycles_per_s", "cycles/s", "higher"},
	{"cpu.golden_alloc_mb", "MB", "lower"},
	{"lifetime.build_ms", "ms", "lower"},
	{"lifetime.events", "count", "lower"},
	{"lifetime.build_ns_per_event", "ns", "lower"},
	{"lifetime.build_alloc_mb", "MB", "lower"},
	{"sampling.generate_ms", "ms", "lower"},
	{"sampling.faults", "count", "lower"},
	{"guestflow.analyze_ms", "ms", "lower"},
	{"guestflow.prune_ms", "ms", "lower"},
	{"guestflow.pruned_frac", "ratio", "higher"},
	{"reduce.ms", "ms", "lower"},
	{"reduce.extrapolate_ms", "ms", "lower"},
	{"reduce.post_ace_frac", "ratio", "lower"},
	{"reduce.reps_per_kfault", "count", "lower"},
	{"campaign.ladder_ms", "ms", "lower"},
	{"campaign.inject_ms.replay", "ms", "lower"},
	{"campaign.inject_ms.checkpointed", "ms", "lower"},
	{"campaign.inject_ms.forked", "ms", "lower"},
	{"campaign.inject_ms_per_rep", "ms", "lower"},
	{"campaign.sim_cycles", "cycles", "lower"},
	{"campaign.inject_cycles_per_s", "cycles/s", "higher"},
	{"campaign.clones", "count", "lower"},
	{"store.get_ms", "ms", "lower"},
	{"store.put_ms", "ms", "lower"},
	{"store.artifact_mb", "MB", "lower"},
	{"store.hit_frac", "ratio", "higher"},
	{"store.snapshot_hit_frac", "ratio", "higher"},
	{"server.submit_ms", "ms", "lower"},
	{"server.queue_wait_ms", "ms", "lower"},
	{"server.preprocess_ms", "ms", "lower"},
	{"server.inject_ms", "ms", "lower"},
	{"server.events_per_op", "count", "lower"},
	{"server.rejected", "count", "lower"},
	{"fleet.shards_per_op", "count", "lower"},
	{"fleet.remote_frac", "ratio", "higher"},
	{"fleet.requeues", "count", "lower"},
	{"session.self_ms", "ms", "lower"},
	{"trace.overhead_ms", "ms", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// layerMetrics derives the per-layer metrics from a traced run's spans
// and counts over nOps ops. fs and props carry the store's file timings
// and the /statsz counts of the daemon and fleet workloads (remote).
func layerMetrics(spans []Span, lc *layerCounts, nOps int, fs *timedFS, props properties, remote bool) map[string]float64 {
	tot := layerTotals(spans)
	total := func(name string) time.Duration {
		if t := tot[name]; t != nil {
			return t.Total
		}
		return 0
	}
	n := float64(max(nOps, 1))
	perOp := func(name string) float64 { return ms(total(name)) / n }
	const mb = 1 << 20

	m := map[string]float64{
		"cpu.golden_ms":                perOp("cpu.golden"),
		"cpu.golden_cycles_per_s":      frac(float64(lc.goldenCycles), total("cpu.golden").Seconds()),
		"cpu.golden_alloc_mb":          float64(lc.goldenAlloc) / mb / n,
		"lifetime.build_ms":            perOp("lifetime.build"),
		"lifetime.events":              float64(lc.events) / n,
		"lifetime.build_ns_per_event":  frac(float64(total("lifetime.build")), float64(lc.events)),
		"lifetime.build_alloc_mb":      float64(lc.buildAlloc) / mb / n,
		"sampling.generate_ms":         perOp("sampling.generate"),
		"sampling.faults":              float64(lc.faults) / n,
		"guestflow.analyze_ms":         perOp("guestflow.analyze"),
		"guestflow.prune_ms":           perOp("guestflow.prune"),
		"guestflow.pruned_frac":        frac(float64(lc.pruned), float64(lc.rfFaults)),
		"reduce.ms":                    perOp("reduce"),
		"reduce.extrapolate_ms":        perOp("reduce.extrapolate"),
		"reduce.post_ace_frac":         frac(float64(lc.postACE), float64(lc.faults)),
		"reduce.reps_per_kfault":       1000 * frac(float64(lc.reps), float64(lc.faults)),
		"campaign.ladder_ms":           perOp("campaign.ladder"),
		"campaign.sim_cycles":          float64(lc.simCycles) / n,
		"campaign.inject_cycles_per_s": frac(float64(lc.simCycles), lc.injectWall.Seconds()),
		"campaign.clones":              float64(lc.clones) / n,
		"session.self_ms":              ms(selfOf(tot, "op")) / n,
	}
	var injectAll time.Duration
	for _, s := range []string{"replay", "checkpointed", "forked"} {
		injectAll += lc.injectTime[s]
		m["campaign.inject_ms."+s] = frac(ms(lc.injectTime[s]), float64(lc.injectOps[s]))
	}
	m["campaign.inject_ms_per_rep"] = frac(ms(injectAll), float64(lc.injected))
	if !remote {
		return m
	}
	if fs != nil {
		fs.mu.Lock()
		m["store.get_ms"] = frac(float64(fs.readNS)/1e6, float64(fs.reads))
		m["store.put_ms"] = frac(float64(fs.writeNS)/1e6, float64(fs.writes))
		m["store.artifact_mb"] = frac(float64(fs.written)/mb, float64(fs.writes))
		fs.mu.Unlock()
	}
	m["store.hit_frac"] = frac(float64(props.Cache.Hits), float64(props.Cache.Hits+props.Cache.Misses))
	m["store.snapshot_hit_frac"] = frac(float64(props.Snapshots.Hits), float64(props.Snapshots.Hits+props.Snapshots.Misses))
	m["server.submit_ms"] = perOp("server.submit")
	m["server.queue_wait_ms"] = perOp("server.queue_wait")
	m["server.preprocess_ms"] = perOp("server.preprocess")
	m["server.inject_ms"] = perOp("server.inject")
	m["server.events_per_op"] = float64(lc.streamEvents) / n
	m["server.rejected"] = float64(props.Rejected)
	m["fleet.shards_per_op"] = float64(lc.shards) / n
	m["fleet.remote_frac"] = frac(float64(lc.remoteShards), float64(lc.shards))
	m["fleet.requeues"] = float64(lc.requeues)
	return m
}

func selfOf(tot map[string]*layerTotal, name string) time.Duration {
	if t := tot[name]; t != nil {
		return t.Self
	}
	return 0
}

// selfShares splits the traced ops' wall time by span name into self
// times, as shares of the summed op wall time: the check that the
// layers named as dominant really are.
func selfShares(spans []Span) map[string]float64 {
	tot := layerTotals(spans)
	wall := time.Duration(0)
	if t := tot["op"]; t != nil {
		wall = t.Total
	}
	out := map[string]float64{}
	for name, t := range tot {
		key := name + ".self"
		if name == "op" {
			key = "session.self"
		}
		out[key] = frac(float64(t.Self), float64(wall))
	}
	return out
}
