package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"merlin/internal/store"
)

func TestParsePhasesFromNDJSON(t *testing.T) {
	stream := strings.Join([]string{
		`{"seq":0,"type":"queued"}`,
		`{"seq":1,"type":"started"}`,
		`{"seq":2,"type":"preprocess","cache_hit":true}`,
		`{"seq":3,"type":"reduce","msg":"60000 faults -> 3 representatives"}`,
		`{"seq":4,"type":"shard","msg":"2 reps -> worker w0 (round 1)"}`,
		`{"seq":5,"type":"shard","msg":"1 reps running locally"}`,
		`{"seq":6,"type":"requeue","msg":"worker w0 lost 1 reps"}`,
		`{"seq":7,"type":"fault","index":0,"fault":"f0","outcome":"Masked"}`,
		`{"seq":8,"type":"fault","index":1,"fault":"f1","outcome":"SDC"}`,
		`{"seq":9,"type":"inject","snapshot_hit":true}`,
		`{"seq":10,"type":"inject","msg":"merged 3 representative outcomes"}`,
		`{"seq":11,"type":"done"}`,
	}, "\n") + "\n"
	evs, err := readEvents(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 12 {
		t.Fatalf("read %d events, want 12", len(evs))
	}
	// Re-stamp arrivals 10ms apart so the gaps are known.
	t0 := time.Unix(100, 0)
	for i := range evs {
		evs[i].At = t0.Add(time.Duration(i) * 10 * time.Millisecond)
	}
	p, err := parsePhases(evs)
	if err != nil {
		t.Fatal(err)
	}
	at := func(i int) time.Time { return t0.Add(time.Duration(i) * 10 * time.Millisecond) }
	if !p.Started.Equal(at(1)) || !p.Preprocess.Equal(at(2)) || !p.Reduce.Equal(at(3)) {
		t.Errorf("phase stamps %v %v %v", p.Started, p.Preprocess, p.Reduce)
	}
	if !p.Inject.Equal(at(10)) {
		t.Errorf("inject stamp = %v, want the last inject event's arrival %v", p.Inject, at(10))
	}
	if !p.Terminal.Equal(at(11)) || p.Final != "done" {
		t.Errorf("terminal %v %q", p.Terminal, p.Final)
	}
	if p.Events != 12 || !p.CacheHit || !p.SnapshotHit {
		t.Errorf("events %d cache hit %v snapshot hit %v", p.Events, p.CacheHit, p.SnapshotHit)
	}
	if p.Shards != 2 || p.RemoteShards != 1 || p.Requeues != 1 {
		t.Errorf("shards %d remote %d requeues %d", p.Shards, p.RemoteShards, p.Requeues)
	}
	if gap := p.Inject.Sub(p.Reduce); gap != 70*time.Millisecond {
		t.Errorf("inject phase %v, want 70ms", gap)
	}
}

func TestParsePhasesRejectsTruncatedStreams(t *testing.T) {
	evs, err := readEvents(strings.NewReader(`{"type":"started"}` + "\n" + `{"type":"preprocess"}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parsePhases(evs); err == nil {
		t.Error("stream without a terminal event parsed")
	}
	evs, _ = readEvents(strings.NewReader(`{"type":"started"}` + "\n" + `{"type":"done"}` + "\n"))
	if _, err := parsePhases(evs); err == nil {
		t.Error("done campaign without phase events parsed")
	}
	evs, _ = readEvents(strings.NewReader(`{"type":"failed","msg":"boom"}` + "\n"))
	if p, err := parsePhases(evs); err != nil || p.Final != "failed" {
		t.Errorf("failed campaign: %+v, %v", p, err)
	}
	if _, err := readEvents(strings.NewReader("{not json\n")); err == nil {
		t.Error("malformed line read without error")
	}
}

func TestTimedFSConcurrentUse(t *testing.T) {
	dir := t.TempDir()
	fs := &timedFS{FS: store.OSFS{}}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			path := filepath.Join(dir, fmt.Sprintf("f%d", g))
			for i := 0; i < 5; i++ {
				if err := fs.WriteFileAtomic(path, []byte("artifact")); err != nil {
					t.Error(err)
				}
				if _, err := fs.ReadFile(path); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	if fs.reads != 20 || fs.writes != 20 || fs.written != 20*int64(len("artifact")) {
		t.Errorf("reads %d writes %d bytes %d", fs.reads, fs.writes, fs.written)
	}
}
