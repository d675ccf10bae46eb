// Command perfbench is the repository's benchmark: one command that runs
// a named workload, checks every result it produces, and prints the
// workload's end-to-end metrics (or, with --trace 1, its per-layer
// metrics) as the last line of standard output.
//
//	bash perfbench/run.sh --workload screen|campaign|daemon|fleet --seed N --seconds S --trace 0|1
//
// See NOTES.md for the workloads, the metrics and what each layer metric
// is expected to move.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"merlin"
	"merlin/internal/store"
	"merlin/internal/workloads"
)

// nominalPassSeconds is how long one pass of each workload takes on the
// reference host (2 CPUs, GOMAXPROCS=2, go1.24). A run measures a fixed
// number of whole passes, sized from --seconds with these figures, so a
// run's work does not depend on how fast the code under test is: two
// commits measured with the same --seconds do the same work.
var nominalPassSeconds = map[string]float64{"screen": 5.8, "campaign": 13, "daemon": 16, "fleet": 18}

// minPasses keeps enough samples for the tail: with 20 or 24 ops per
// pass, two passes put at least 10 samples beyond p75.
var minPasses = map[string]int{"screen": 2, "campaign": 2, "daemon": 1, "fleet": 1}

// setupReps is how many times a run times its workload's set-up in a
// fresh child process; setup_s is the median.
const setupReps = 9

// clients is each remote workload's closed-loop client count.
var clients = map[string]int{"daemon": 2, "fleet": 1}

// errUsage marks a command line the benchmark cannot run.
var errUsage = errors.New("want --workload screen|campaign|daemon|fleet, --seconds >= 1, --trace 0|1")

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run executes one invocation. A run whose checks failed prints its
// result first and then returns an error, so the command exits non-zero.
func run() error {
	var (
		workload   = flag.String("workload", "", "screen, campaign, daemon or fleet")
		seed       = flag.Int64("seed", 1, "op-list seed")
		seconds    = flag.Int("seconds", 15, "run length on the reference host; sets the number of passes")
		trace      = flag.Int("trace", 0, "1: traced run printing per-layer metrics")
		workdir    = flag.String("workdir", ".bench_build/work", "scratch directory for artifact caches")
		recordPins = flag.String("record-pins", "", "run every pinned input once and write the digests to this file")
		setupOnly  = flag.Bool("setup-only", false, "set the workload up, print a line, tear it down and exit (set-up timing child)")
	)
	flag.Parse()

	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)

	if *recordPins != "" {
		return recordAllPins(*recordPins)
	}
	if _, ok := nominalPassSeconds[*workload]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errUsage
	}
	chk, err := newChecker(false)
	if err != nil {
		return err
	}
	b := &bench{
		ctx: context.Background(), workload: *workload, seed: *seed, seconds: *seconds,
		workdir: *workdir, chk: chk,
	}
	if *setupOnly {
		st, err := b.setupOnce(nil)
		if err != nil {
			return err
		}
		fmt.Println("ready")
		if st != nil {
			st.close()
		}
		return nil
	}
	b.detail = map[string]any{
		"workload": b.workload, "seed": b.seed, "seconds": b.seconds, "trace": *trace,
		"host": hostFingerprint(procs, b.seed),
		"note": "the simulator is not validated against hardware; no error figure is given",
	}
	var out result
	if *trace == 1 {
		out, err = b.traced()
	} else {
		out, err = b.measured()
	}
	if err != nil {
		return err
	}
	out.Correct = len(chk.failures) == 0 && out.Failed == 0
	b.detail["failed_frac"] = frac(float64(out.Failed), float64(out.Attempted))
	if n := len(chk.failures); n > 0 {
		b.detail["failures"] = chk.failures[:min(n, 20)]
	}
	detail, err := json.Marshal(map[string]any{"perfbench": b.detail})
	if err != nil {
		return err
	}
	final, err := json.Marshal(out)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "%s\n%s\n", detail, final)
	if err := w.Flush(); err != nil {
		return err
	}
	if !out.Correct {
		for _, f := range chk.failures {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
		}
		return fmt.Errorf("%d of %d ops failed their checks", out.Failed, out.Attempted)
	}
	return nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type bench struct {
	ctx      context.Context
	workload string
	seed     int64
	seconds  int
	workdir  string
	chk      *checker
	refs     map[string][]uint64
	detail   map[string]any
}

// tally is what one pass (or several) of ops produced.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	latMS     []float64
	wall      time.Duration
	props     properties
}

// properties are the input shares recorded with every result, so a claim
// that a change helps only inputs with some property can cite a measured
// share.
type properties struct {
	Faults, PostACE, RFFaults, Pruned int
	OpsPerStrategy                    map[string]int
	Cache, Snapshots                  struct{ Hits, Misses uint64 }
	Rejected                          int
}

func (p *properties) detail(workload string) map[string]any {
	d := map[string]any{"post_ace_frac": frac(float64(p.PostACE), float64(p.Faults))}
	if workload == "screen" {
		d["pruned_frac"] = frac(float64(p.Pruned), float64(p.RFFaults))
	}
	if len(p.OpsPerStrategy) > 0 {
		d["ops_per_strategy"] = p.OpsPerStrategy
	}
	if workload == "daemon" || workload == "fleet" {
		d["cache_hit_frac"] = frac(float64(p.Cache.Hits), float64(p.Cache.Hits+p.Cache.Misses))
		d["snapshot_hit_frac"] = frac(float64(p.Snapshots.Hits), float64(p.Snapshots.Hits+p.Snapshots.Misses))
		d["rejected"] = p.Rejected
	}
	return d
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (b *bench) passes() int {
	n := int(math.Round(float64(b.seconds) / nominalPassSeconds[b.workload]))
	return max(n, minPasses[b.workload])
}

func (b *bench) programs() []string {
	switch b.workload {
	case "screen":
		return workloads.Names("")
	case "campaign":
		return campaignPrograms
	}
	return daemonPrograms
}

func (b *bench) remote() bool { return b.workload == "daemon" || b.workload == "fleet" }

// setupOnce builds the guest programs and their reference outputs and,
// for daemon and fleet, starts the server stack (fs, when non-nil, times
// the artifact store's file accesses).
func (b *bench) setupOnce(fs *timedFS) (*stack, error) {
	b.refs = map[string][]uint64{}
	for _, name := range b.programs() {
		w, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		w.Program()
		b.refs[name] = w.Reference()
	}
	if !b.remote() {
		return nil, nil
	}
	workers := 0
	if b.workload == "fleet" {
		workers = 2
	}
	return startStack(filepath.Join(b.workdir, fmt.Sprintf("%s-%d", b.workload, os.Getpid())), workers, fs)
}

// timeSetup starts a child process that sets the workload up from
// scratch (exec, runtime start, guest programs built, and for daemon and
// fleet the cache dir, server, listeners and joined workers) and returns
// the time until it reports ready. The child then tears down and exits;
// timeSetup waits for it.
func (b *bench) timeSetup(i int) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--setup-only", "--workload", b.workload,
		"--workdir", filepath.Join(b.workdir, fmt.Sprintf("setup%d", i)))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, readErr := bufio.NewReader(out).ReadString('\n')
	d := time.Since(t0)
	io.Copy(io.Discard, out)
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	if readErr != nil || line != "ready\n" {
		return 0, fmt.Errorf("set-up child printed %q (%v)", line, readErr)
	}
	return d, nil
}

// measured is the untraced run: setupReps timed set-ups in child
// processes, this process's own set-up, then the op list.
func (b *bench) measured() (result, error) {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		d, err := b.timeSetup(i)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	b.detail["setup_reps_s"] = setups
	st, err := b.setupOnce(nil)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}

	ops := genOps(b.workload, b.seed, b.passes())
	b.detail["passes"] = b.passes()
	b.detail["ops"] = len(ops)
	b.detail["ops_digest"] = opsDigest(ops)
	r := &tally{}
	if st != nil {
		b.remotePass(st, ops, r, nil, nil)
		st.close()
	} else {
		b.localPass(ops, r)
	}
	lat := summarize(r.latMS)
	b.detail["latency"] = lat
	b.detail["properties"] = r.props.detail(b.workload)
	return result{
		Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metric{
			"setup_s":         {median(setups), "s"},
			"ops_per_s":       {float64(len(r.latMS)) / r.wall.Seconds(), "1/s"},
			"latency_p50_ms":  {lat.P50, "ms"},
			"latency_tail_ms": {lat.Tail, "ms"},
			"peak_rss_mb":     {peakRSSMB(), "MB"},
		},
	}, nil
}

// localPass runs screen or campaign ops one after another, untraced.
// The heap is collected between ops, outside the timed region, so an
// op's latency and the run's peak memory do not depend on the garbage the
// op before it left (which the seed would otherwise decide).
func (b *bench) localPass(ops []Op, r *tally) {
	var busy time.Duration
	for i, op := range ops {
		runtime.GC()
		busy += b.localOp(i, op, r, nil, nil)
	}
	r.wall = busy
}

// localOp runs one screen or campaign op, untraced when rec is nil, and
// checks its result. Only the op itself is timed.
func (b *bench) localOp(i int, op Op, r *tally, rec *Recorder, lc *layerCounts) time.Duration {
	var (
		screen  *screenResult
		rep     *merlin.Report
		art     *merlin.Artifacts
		output  []uint64
		reduced int
		err     error
	)
	t0 := time.Now()
	switch {
	case b.workload == "screen" && rec == nil:
		screen, err = screenUntraced(b.ctx, op)
	case b.workload == "screen":
		screen, err = screenTraced(rec, lc, i+1, op)
	case rec == nil:
		rep, art, err = campaignUntraced(b.ctx, op)
	default:
		rep, output, reduced, err = campaignTraced(b.ctx, rec, lc, i+1, op)
	}
	d := time.Since(t0)
	r.attempted++
	if err != nil {
		b.chk.failf("%s: %v", op.label(), err)
		r.failed++
		return d
	}

	var digest string
	var ok bool
	if screen != nil {
		output, digest = screen.Output, screen.digest()
		ok = b.chk.screen(op, screen)
	} else {
		if art != nil {
			output, reduced = art.Golden.Result.Output, art.Red.ReducedCount()
		}
		digest = reportDigest(rep)
		ok = b.chk.report(op, rep, reduced)
	}
	ok = b.chk.output(op, output, b.refs[op.Program]) && ok
	ok = b.chk.digest(op, digest) && ok
	if !ok {
		r.failed++
	}
	r.latMS = append(r.latMS, ms(d))
	if rec == nil {
		r.props.add(op, screen, rep)
	}
	return d
}

// add folds one untraced op's result into the property shares.
func (p *properties) add(op Op, screen *screenResult, rep *merlin.Report) {
	if screen != nil {
		for _, part := range screen.Parts {
			p.Faults += part.Faults
			p.PostACE += part.PostACE
			if part.Structure == "RF" {
				p.RFFaults += part.Faults
				p.Pruned += part.StaticPruned
			}
		}
		return
	}
	p.Faults += rep.InitialFaults
	p.PostACE += rep.PostACE
	if p.OpsPerStrategy == nil {
		p.OpsPerStrategy = map[string]int{}
	}
	p.OpsPerStrategy[op.strategy()]++
}

// remotePass drives ops through the daemon's HTTP API from a closed loop
// of clients. With rec non-nil it records each op's client-side spans.
func (b *bench) remotePass(st *stack, ops []Op, r *tally, rec *Recorder, lc *layerCounts) {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients[b.workload]}}
	defer client.CloseIdleConnections()
	t0 := time.Now()
	runClients(clients[b.workload], ops, func(i int, op Op) {
		res, err := daemonOp(b.ctx, client, st.base, op)
		r.mu.Lock()
		defer r.mu.Unlock()
		r.attempted++
		if err != nil {
			if res != nil && res.Rejected {
				r.props.Rejected++
			}
			b.chk.failf("%s: %v", op.label(), err)
			r.failed++
			return
		}
		rep := res.Report
		ok := b.chk.report(op, rep, rep.FinalGroups)
		ok = b.chk.digest(op, reportDigest(rep)) && ok
		if !ok {
			r.failed++
		}
		r.latMS = append(r.latMS, ms(res.End.Sub(res.Start)))
		r.props.add(op, nil, rep)
		if rec != nil {
			recordRemoteOp(rec, lc, i+1, op, res)
		}
	})
	r.wall = time.Since(t0)
	var sz statsz
	if err := getJSON(st.base+"/statsz", &sz); err != nil {
		b.chk.failf("GET /statsz: %v", err)
		return
	}
	r.props.Cache.Hits, r.props.Cache.Misses = sz.Cache.Hits, sz.Cache.Misses
	r.props.Snapshots.Hits, r.props.Snapshots.Misses = sz.Snapshots.Hits, sz.Snapshots.Misses
}

// recordRemoteOp turns one daemon op's client-side timeline into spans:
// the POST round trip, the wait until the started event, the gaps between
// phase events, and the report fetch. Whatever they leave uncovered is
// the op's self time.
func recordRemoteOp(rec *Recorder, lc *layerCounts, opID int, op Op, res *daemonResult) {
	p := res.Phases
	root := rec.Add(opID, 0, "op", res.Start, res.End)
	rec.Add(opID, root, "server.submit", res.Start, res.Posted)
	rec.Add(opID, root, "server.queue_wait", res.Posted, later(res.Posted, p.Started))
	rec.Add(opID, root, "server.preprocess", later(res.Posted, p.Started), p.Preprocess)
	rec.Add(opID, root, "reduce", p.Preprocess, p.Reduce)
	rec.Add(opID, root, "server.inject", p.Reduce, p.Inject)
	rec.Add(opID, root, "server.report", p.Terminal, res.End)

	rep := res.Report
	lc.streamEvents += p.Events
	lc.shards += p.Shards
	lc.remoteShards += p.RemoteShards
	lc.requeues += p.Requeues
	lc.faults += rep.InitialFaults
	lc.postACE += rep.PostACE
	lc.reps += rep.FinalGroups
	lc.injected += rep.Injected
	lc.simCycles += rep.SimCycles
	lc.clones += rep.Clones
	lc.injectWall += rep.Wall
	lc.injectTime[op.strategy()] += p.Inject.Sub(p.Reduce)
	lc.injectOps[op.strategy()]++
}

// later returns the later of two times: an event replayed when the
// client connected counts as arriving then, never before the POST
// returned.
func later(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// traced is the traced run. Screen and campaign ops each run twice, once
// untraced and once traced (alternating which goes first); daemon and
// fleet run one untraced pass and then one traced pass, each on a fresh
// stack. The traced ops give the per-layer metrics; the difference
// between the two medians is the tracing overhead.
func (b *bench) traced() (result, error) {
	ops := genOps(b.workload, b.seed, 1)
	b.detail["passes"] = 1
	b.detail["ops"] = len(ops)
	b.detail["ops_digest"] = opsDigest(ops)
	rec := &Recorder{}
	lc := newLayerCounts()
	plain, traced := &tally{}, &tally{}
	var fs *timedFS
	if b.remote() {
		st, err := b.setupOnce(nil)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		b.remotePass(st, ops, plain, nil, nil)
		st.close()
		fs = &timedFS{FS: store.OSFS{}}
		if st, err = b.setupOnce(fs); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		b.remotePass(st, ops, traced, rec, lc)
		st.close()
	} else {
		if _, err := b.setupOnce(nil); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		for i, op := range ops {
			runtime.GC()
			if i%2 == 0 {
				b.localOp(i, op, plain, nil, nil)
				b.localOp(i, op, traced, rec, lc)
			} else {
				b.localOp(i, op, traced, rec, lc)
				b.localOp(i, op, plain, nil, nil)
			}
		}
	}
	p50Plain, p50Traced := median(plain.latMS), median(traced.latMS)
	overhead := p50Traced - p50Plain
	b.detail["trace"] = map[string]any{
		"untraced_p50_ms": p50Plain, "traced_p50_ms": p50Traced,
		"overhead_ms": overhead, "overhead_frac": frac(overhead, p50Plain),
	}
	b.detail["properties"] = plain.props.detail(b.workload)
	spans := rec.Spans()
	layers := layerMetrics(spans, lc, len(traced.latMS), fs, traced.props, b.remote())
	layers["trace.overhead_ms"] = overhead
	layers["trace.overhead_frac"] = frac(overhead, p50Plain)
	b.detail["op_time_shares"] = selfShares(spans)
	metrics := map[string]metric{}
	for _, l := range layerSpecs {
		metrics[l.name] = metric{layers[l.name], l.unit}
	}
	return result{
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		Metrics:   metrics,
	}, nil
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostFingerprint identifies the host a result came from, so results
// from different hosts are never compared silently.
func hostFingerprint(procs int, seed int64) map[string]any {
	model := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": procs, "go": runtime.Version(),
		"os_arch": runtime.GOOS + "/" + runtime.GOARCH, "cpu": model, "seed": seed,
	}
}

// recordAllPins runs every input any workload can issue once, untraced,
// and writes the result digests.
func recordAllPins(path string) error {
	ctx := context.Background()
	chk, err := newChecker(true)
	if err != nil {
		return err
	}
	done := map[string]bool{}
	var ops []Op
	for _, w := range []string{"screen", "campaign", "daemon"} {
		for _, op := range passSet(w) {
			if !done[op.pinKey()] {
				done[op.pinKey()] = true
				ops = append(ops, op)
			}
		}
	}
	for _, op := range ops {
		if op.Structure == "" {
			res, err := screenUntraced(ctx, op)
			if err != nil {
				return err
			}
			chk.digest(op, res.digest())
			continue
		}
		rep, _, err := campaignUntraced(ctx, op)
		if err != nil {
			return err
		}
		chk.digest(op, reportDigest(rep))
	}
	fmt.Fprintf(os.Stderr, "perfbench: pinned %d digests\n", len(chk.pins))
	return chk.writePins(path)
}
