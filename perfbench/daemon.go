package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"merlin"
	"merlin/internal/fleet"
	"merlin/internal/store"
)

// timedFS wraps the artifact store's filesystem and times its reads and
// writes: the store layer's numbers on the daemon and fleet workloads.
type timedFS struct {
	store.FS
	mu              sync.Mutex
	reads, writes   int
	readNS, writeNS int64
	written         int64
}

func (t *timedFS) ReadFile(path string) ([]byte, error) {
	t0 := time.Now()
	b, err := t.FS.ReadFile(path)
	d := time.Since(t0)
	t.mu.Lock()
	t.reads++
	t.readNS += int64(d)
	t.mu.Unlock()
	return b, err
}

func (t *timedFS) WriteFileAtomic(path string, data []byte) error {
	t0 := time.Now()
	err := t.FS.WriteFileAtomic(path, data)
	d := time.Since(t0)
	t.mu.Lock()
	t.writes++
	t.writeNS += int64(d)
	t.written += int64(len(data))
	t.mu.Unlock()
	return err
}

// stack is one in-process merlind (and, for fleet, its workers) behind
// loopback listeners.
type stack struct {
	dir    string
	srv    *merlin.Server
	hs     *http.Server
	base   string
	cancel context.CancelFunc
	wg     sync.WaitGroup // one per worker, done when its ServeWorker returns
	exited chan error     // buffered to the worker count, so senders never block
}

func openCache(dir string, fs *timedFS) (*merlin.Cache, error) {
	if fs == nil {
		return merlin.OpenCache(dir)
	}
	return store.OpenOn(fs, dir)
}

// startStack builds the daemon workload's server: a fresh artifact-cache
// dir, the default snapshot budget, no registry, and two campaign slots
// (one shard running two campaigns), so two clients' campaigns run side
// by side instead of queueing whenever their ids hash to the same shard.
// With workers > 0 the daemon is a fleet coordinator
// and that many in-process workers join it through ServeWorker, each with
// its own fresh cache.
func startStack(dir string, workers int, fs *timedFS) (*stack, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	cache, err := openCache(filepath.Join(dir, "coordinator"), fs)
	if err != nil {
		return nil, err
	}
	srv, err := merlin.NewServer(merlin.ServeOptions{Cache: cache, Shards: 1, WorkersPerShard: 2})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &stack{dir: dir, srv: srv, base: "http://" + ln.Addr().String()}
	s.hs = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go s.hs.Serve(ln)
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.exited = make(chan error, workers)
	for i := 0; i < workers; i++ {
		wcache, err := openCache(filepath.Join(dir, fmt.Sprintf("worker%d", i)), fs)
		if err != nil {
			s.close()
			return nil, err
		}
		addr, err := freeAddr()
		if err != nil {
			s.close()
			return nil, err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.exited <- merlin.ServeWorker(ctx, addr, merlin.WorkerOptions{Coordinator: s.base, Cache: wcache})
		}()
	}
	if err := s.awaitWorkers(workers); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// freeAddr picks a loopback port for a worker listener (ServeWorker binds
// its own listener, so the probe listener is closed first).
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

func (s *stack) awaitWorkers(want int) error {
	if want == 0 {
		return nil
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case err := <-s.exited:
			return fmt.Errorf("fleet worker exited while joining: %v", err)
		default:
		}
		var list struct {
			Workers []fleet.WorkerInfo `json:"workers"`
		}
		if err := getJSON(s.base+"/fleet/workers", &list); err == nil && len(list.Workers) >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fewer than %d fleet workers joined within 30s", want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// close stops the workers (waiting for each to exit), then the daemon and
// its listener, and removes the stack's directories.
func (s *stack) close() {
	s.cancel()
	s.wg.Wait()
	s.srv.Close()
	s.hs.Close()
	os.RemoveAll(s.dir)
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// statsz is the part of /statsz the benchmark reads.
type statsz struct {
	Cache     struct{ Hits, Misses, Puts uint64 } `json:"cache"`
	Snapshots struct{ Hits, Misses uint64 }       `json:"snapshots"`
}

// arrival is one NDJSON event line with the time the client read it.
type arrival struct {
	At time.Time
	Ev merlin.CampaignEvent
}

// phases is a campaign's phase timing as the client saw it: the gaps
// between the arrivals of its lifecycle events.
type phases struct {
	Started, Preprocess, Reduce, Inject, Terminal time.Time
	Final                                         string // type of the terminal event
	Events                                        int
	CacheHit, SnapshotHit                         bool
	Shards, RemoteShards, Requeues                int
}

// parsePhases folds one campaign's event arrivals into its phase
// timestamps. A phase event's time is its arrival; for inject the last
// arrival counts, since a fleet campaign ends with a merged inject event.
// The log must end in a terminal event.
func parsePhases(evs []arrival) (phases, error) {
	var p phases
	for _, a := range evs {
		p.Events++
		switch a.Ev.Type {
		case "started":
			p.Started = a.At
		case "preprocess":
			p.Preprocess = a.At
			p.CacheHit = a.Ev.CacheHit != nil && *a.Ev.CacheHit
		case "reduce":
			p.Reduce = a.At
		case "inject":
			p.Inject = a.At
			if a.Ev.SnapshotHit != nil {
				p.SnapshotHit = *a.Ev.SnapshotHit
			}
		case "shard":
			if strings.Contains(a.Ev.Msg, "-> worker") {
				p.Shards++
				p.RemoteShards++
			} else if strings.Contains(a.Ev.Msg, "running locally") || strings.Contains(a.Ev.Msg, "falling back to local") {
				p.Shards++
			}
		case "requeue":
			p.Requeues++
		case "done", "failed", "cancelled":
			p.Terminal, p.Final = a.At, a.Ev.Type
		}
	}
	switch {
	case p.Final == "":
		return p, fmt.Errorf("event stream ended without a terminal event after %d events", p.Events)
	case p.Final == "done" && (p.Started.IsZero() || p.Preprocess.IsZero() || p.Reduce.IsZero() || p.Inject.IsZero()):
		return p, fmt.Errorf("done campaign is missing a started, preprocess, reduce or inject event")
	}
	return p, nil
}

// readEvents reads an NDJSON event stream to its end, stamping each line
// on arrival.
func readEvents(r io.Reader) ([]arrival, error) {
	var out []arrival
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		at := time.Now()
		var ev merlin.CampaignEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return out, fmt.Errorf("event line %d: %w", len(out)+1, err)
		}
		out = append(out, arrival{At: at, Ev: ev})
	}
	return out, sc.Err()
}

// daemonResult is one daemon op as the client saw it.
type daemonResult struct {
	Start, Posted, End time.Time
	Phases             phases
	Report             *merlin.Report
	Rejected           bool
}

// request is the op's wire form: one worker per campaign.
func (o Op) request() merlin.CampaignRequest {
	return merlin.CampaignRequest{
		Workload: o.Program, Structure: o.Structure, Strategy: o.Strategy, Workers: 1,
		PhysRegs: o.PhysRegs, SQEntries: o.SQEntries, L1DBytes: o.L1DBytes,
	}
}

// daemonOp submits one campaign, follows its event stream to the
// terminal event, and fetches the report.
func daemonOp(ctx context.Context, client *http.Client, base string, op Op) (*daemonResult, error) {
	body, err := json.Marshal(op.request())
	if err != nil {
		return nil, err
	}
	res := &daemonResult{Start: time.Now()}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/campaigns", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	var sub struct{ ID, Error string }
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	res.Posted = time.Now()
	if resp.StatusCode == http.StatusTooManyRequests {
		res.Rejected = true
		return res, fmt.Errorf("POST /campaigns: 429 %s", sub.Error)
	}
	if err != nil || resp.StatusCode != http.StatusAccepted || sub.ID == "" {
		return res, fmt.Errorf("POST /campaigns: %s %s (%v)", resp.Status, sub.Error, err)
	}

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/campaigns/"+sub.ID+"/events", nil)
	if err != nil {
		return res, err
	}
	resp, err = client.Do(req)
	if err != nil {
		return res, err
	}
	evs, err := readEvents(resp.Body)
	resp.Body.Close()
	if err != nil {
		return res, err
	}
	if res.Phases, err = parsePhases(evs); err != nil {
		return res, err
	}

	var st struct {
		Status string
		Error  string
		Report *merlin.Report
	}
	if err := getJSON(base+"/campaigns/"+sub.ID, &st); err != nil {
		return res, err
	}
	res.End = time.Now()
	if st.Status != "done" || st.Report == nil {
		return res, fmt.Errorf("campaign %s ended %q: %s", sub.ID, st.Status, st.Error)
	}
	res.Report = st.Report
	return res, nil
}

// runClients drives ops through a closed loop of n clients: each takes
// the next op only after its previous one completed.
func runClients(n int, ops []Op, do func(i int, op Op)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				do(i, ops[i])
			}
		}()
	}
	wg.Wait()
}
