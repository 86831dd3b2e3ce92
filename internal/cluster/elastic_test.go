package cluster_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"nbticache/internal/cluster"
	"nbticache/internal/cluster/clustertest"
	"nbticache/internal/engine"
)

// elasticSpec is the fault-injection workload: all 18 paper benchmarks
// at M=4 under the single default sleep mode, so every job has a
// distinct simulation (no cross-job run sharing) and per-engine
// RunsExecuted counters map one-to-one onto jobs simulated.
func elasticSpec(name string) engine.SweepSpec {
	return engine.SweepSpec{Name: name, Banks: []int{4}}
}

// referenceResults runs spec on a fresh 1-node cluster and returns the
// canonical byte form per job ID — the determinism oracle the
// fault-injection scenarios compare against.
func referenceResults(t *testing.T, spec engine.SweepSpec) map[string][]byte {
	t.Helper()
	single := clustertest.Start(t, 1, clustertest.Options{})
	res, err := single.Coordinator(t).Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return resultsByID(t, res)
}

func assertByteIdentical(t *testing.T, want, got map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("job counts diverge: want %d, got %d", len(want), len(got))
	}
	for id, wb := range want {
		gb, ok := got[id]
		if !ok {
			t.Errorf("job %s missing", id)
			continue
		}
		if !bytes.Equal(wb, gb) {
			t.Errorf("job %s diverges from the 1-shard reference:\nwant: %s\ngot:  %s", id, wb, gb)
		}
	}
}

// TestNodeKillRejoinMidSweep is the elastic-membership acceptance
// scenario: a node is killed mid-sweep and restarted on the same
// address with the same data directory; the health loop re-admits it,
// the sweep completes byte-identical to the 1-shard reference, and the
// counters prove no job merged before the kill was ever re-simulated.
func TestNodeKillRejoinMidSweep(t *testing.T) {
	spec := elasticSpec("kill-rejoin")
	want := referenceResults(t, spec)

	cl := clustertest.Start(t, 3, clustertest.Options{
		GenDelay:       50 * time.Millisecond,
		HealthInterval: 50 * time.Millisecond,
	})
	c := cl.Coordinator(t)
	h, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	total := len(h.Jobs())

	// The victim is the node owning the most jobs (pigeonhole: >= total/3).
	owned := make(map[string]int)
	for _, j := range h.Jobs() {
		owner, _ := c.OwnerOf(j.ID())
		owned[owner]++
	}
	var victimURL string
	for url, n := range owned {
		if n > owned[victimURL] {
			victimURL = url
		}
	}
	victim := cl.ByURL(victimURL)

	// Kill once at least one result has merged but the sweep is still
	// running — mid-sweep by construction.
	deadline := time.Now().Add(time.Minute)
	for {
		st := h.Status()
		if st.Completed >= 1 && st.State == "running" {
			break
		}
		if st.State != "running" || time.Now().After(deadline) {
			t.Fatalf("no mid-sweep kill window: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Everything merged from here back is the protected set: these jobs
	// must never be simulated again by anyone. The merged set is counted
	// before the survivors' run counters are read, so a job finishing in
	// between is charged to neither side: its run predates the snapshot
	// and its slot stays in the unmerged remainder.
	mergedAtKill := 0
	mergedBytes := make(map[string][]byte)
	for _, r := range h.Results() {
		if r != nil && r.Err == "" && !r.Canceled {
			mergedAtKill++
			mergedBytes[r.ID] = canonicalResult(t, r)
		}
	}
	survivorRunsAtKill := make(map[string]uint64)
	for _, n := range cl.Nodes {
		if n != victim {
			survivorRunsAtKill[n.Name] = n.Engine.Stats().RunsExecuted
		}
	}
	victim.Kill()
	victim.Restart(t)

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	res, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status.State != "done" || res.Status.Failed != 0 || res.Status.Canceled != 0 {
		t.Fatalf("sweep did not complete cleanly across the kill+rejoin: %+v", res.Status)
	}
	got := resultsByID(t, res)
	assertByteIdentical(t, want, got)
	// Results merged before the kill survived it byte-for-byte.
	for id, wb := range mergedBytes {
		if !bytes.Equal(wb, got[id]) {
			t.Errorf("pre-kill result %s changed across the rejoin", id)
		}
	}

	// Zero re-simulation of already-merged jobs, by counters: merged
	// slots never re-dispatch, so post-kill simulations anywhere in the
	// cluster are bounded by the unmerged remainder. The restarted
	// victim warm-starts from its disk CAS, so its counter covers only
	// genuinely new work too.
	postKillRuns := victim.Engine.Stats().RunsExecuted
	for _, n := range cl.Nodes {
		if n != victim {
			postKillRuns += n.Engine.Stats().RunsExecuted - survivorRunsAtKill[n.Name]
		}
	}
	if maxNew := uint64(total - mergedAtKill); postKillRuns > maxNew {
		t.Errorf("post-kill simulations = %d, want <= %d (total %d - %d merged before the kill): an already-merged job was re-simulated",
			postKillRuns, maxNew, total, mergedAtKill)
	}

	// The health loop re-admitted the restarted victim.
	waitFor(t, 30*time.Second, func() bool {
		st := c.Stats()
		return st.AlivePeers == 3 && st.RingRejoins >= 1
	}, "victim never rejoined the ring")
	if st := c.Stats(); st.JobsMerged != uint64(total) {
		t.Errorf("merged %d results, want %d", st.JobsMerged, total)
	}
}

// TestRejoinInventoryReplay pins the blob-directory replay half of
// rejoin: a peer whose disk CAS already holds every result is evicted
// (partitioned behind 503s) and later heals; on rejoin its inventory
// resolves the sweep's pending slots with zero simulations on the
// rejoined node — proven by its RunsExecuted standing still.
func TestRejoinInventoryReplay(t *testing.T) {
	spec := elasticSpec("inventory-replay")
	cl := clustertest.Start(t, 2, clustertest.Options{
		GenDelay:       150 * time.Millisecond,
		HealthInterval: 40 * time.Millisecond,
	})
	warm := cl.Nodes[1]

	// Pre-warm the node's cache in-process with every job of the sweep.
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := make(map[string][]byte, len(jobs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	for _, j := range jobs {
		wg.Add(1)
		go func(j engine.JobSpec) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			r, err := warm.Engine.RunJob(context.Background(), j)
			if err != nil {
				t.Errorf("pre-warm %s: %v", j.ID(), err)
				return
			}
			mu.Lock()
			wantBytes[r.ID] = canonicalResult(t, r)
			mu.Unlock()
		}(j)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	warmRuns := warm.Engine.Stats().RunsExecuted

	// Partition the warm node (reachable, answers 503 to everything)
	// and let the health loop evict it before the sweep submits.
	warm.Partition(true)
	c := cl.Coordinator(t)
	waitFor(t, 30*time.Second, func() bool { return c.Stats().AlivePeers == 1 },
		"partitioned peer never evicted")

	h, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// Heal the partition mid-sweep: the slow survivor cannot have
	// finished 18 x 150ms generations yet.
	warm.Partition(false)

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	res, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status.State != "done" || res.Status.Failed != 0 || res.Status.Canceled != 0 {
		t.Fatalf("sweep did not complete cleanly: %+v", res.Status)
	}
	assertByteIdentical(t, wantBytes, resultsByID(t, res))

	// The rejoined node served only from its cache: not one simulation.
	if got := warm.Engine.Stats().RunsExecuted; got != warmRuns {
		t.Errorf("rejoined node ran %d new simulations, want 0 (all %d results were already in its CAS)",
			got-warmRuns, len(jobs))
	}
	st := c.Stats()
	if st.RingRejoins < 1 {
		t.Errorf("ring rejoins = %d, want >= 1", st.RingRejoins)
	}
	if st.JobsRecovered < 1 {
		t.Errorf("jobs recovered = %d, want >= 1 (the inventory replay resolved pending slots)", st.JobsRecovered)
	}
	if st.JobsMerged != uint64(len(jobs)) {
		t.Errorf("merged %d, want %d", st.JobsMerged, len(jobs))
	}
}

// TestCoordinatorRestartMidSweep is the coordinator-HA acceptance
// scenario: the coordinator is closed mid-sweep and a new one over the
// same state directory resumes the sweep from its persisted checkpoint.
// The merged sweep is byte-identical to the 1-shard reference,
// already-merged jobs are recovered from the shard caches (counted, not
// re-dispatched), and the shard engines run no more new simulations
// than the unmerged remainder.
func TestCoordinatorRestartMidSweep(t *testing.T) {
	spec := elasticSpec("coordinator-restart")
	want := referenceResults(t, spec)

	cl := clustertest.Start(t, 3, clustertest.Options{GenDelay: 50 * time.Millisecond})
	stateDir := t.TempDir()

	c1 := cl.CoordinatorAt(t, stateDir)
	h1, err := c1.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	total := len(h1.Jobs())

	// Close mid-sweep, once some results merged.
	deadline := time.Now().Add(time.Minute)
	for {
		st := h1.Status()
		if st.Completed >= 2 && st.State == "running" {
			break
		}
		if st.State != "running" || time.Now().After(deadline) {
			t.Fatalf("no mid-sweep restart window: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	c1.Close()
	// Close settles the handle: whatever merged successfully is the
	// checkpointed set the next coordinator must not re-do.
	st1 := h1.Status()
	if st1.State != "canceled" || st1.Completed < 2 || st1.Completed >= total {
		t.Fatalf("shutdown settle: %+v (want a partially merged sweep)", st1)
	}
	mergedAtClose := st1.Completed
	runsAtClose := uint64(0)
	for _, n := range cl.Nodes {
		runsAtClose += n.Engine.Stats().RunsExecuted
	}

	c2 := cl.CoordinatorAt(t, stateDir)
	resumed, err := c2.Resume(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 1 || resumed[0].ID != h1.ID {
		t.Fatalf("resumed %d sweeps (%v), want exactly %q", len(resumed), resumed, h1.ID)
	}
	h2 := resumed[0]

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	res, err := h2.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status.State != "done" || res.Status.Failed != 0 || res.Status.Canceled != 0 {
		t.Fatalf("resumed sweep did not complete cleanly: %+v", res.Status)
	}
	assertByteIdentical(t, want, resultsByID(t, res))

	st := c2.Stats()
	if st.SweepsResumed != 1 {
		t.Errorf("sweeps resumed = %d, want 1", st.SweepsResumed)
	}
	if st.JobsRecovered != uint64(mergedAtClose) {
		t.Errorf("jobs recovered = %d, want %d (every job merged before the restart, from cache)",
			st.JobsRecovered, mergedAtClose)
	}
	if distinct := st.JobsRouted - st.JobsRetried; distinct != uint64(total-mergedAtClose) {
		t.Errorf("distinct jobs dispatched after restart = %d, want %d: an already-merged job was re-dispatched",
			distinct, total-mergedAtClose)
	}
	if st.JobsMerged != uint64(total) {
		t.Errorf("merged %d, want %d", st.JobsMerged, total)
	}
	// Zero re-simulation of already-merged jobs, at the engines: new
	// simulations across the cluster are bounded by the unmerged
	// remainder (shard engines were never restarted, so their
	// content-addressed caches answer everything already run).
	runsAfter := uint64(0)
	for _, n := range cl.Nodes {
		runsAfter += n.Engine.Stats().RunsExecuted
	}
	if maxNew := uint64(total - mergedAtClose); runsAfter-runsAtClose > maxNew {
		t.Errorf("post-restart simulations = %d, want <= %d: an already-merged job was re-simulated",
			runsAfter-runsAtClose, maxNew)
	}

	// The resumed sweep completed cleanly, so its checkpoint is gone: a
	// third coordinator finds nothing to resume.
	c2.Close()
	c3 := cl.CoordinatorAt(t, stateDir)
	if left, err := c3.Resume(context.Background()); err != nil || len(left) != 0 {
		t.Errorf("Resume after clean completion = %d sweeps, %v; want none", len(left), err)
	}
}

// TestRuntimeJoinAnnounce: a node started after the coordinator joins
// the ring through the announce endpoint and immediately takes its
// keyspace share of a sweep.
func TestRuntimeJoinAnnounce(t *testing.T) {
	cl := clustertest.Start(t, 1, clustertest.Options{})
	c := cl.Coordinator(t)
	ts := httptest.NewServer(cluster.NewServer(c, cluster.ServerConfig{}).Handler())
	t.Cleanup(ts.Close)

	late := cl.StartNode(t)
	if err := cluster.Announce(context.Background(), nil, ts.URL, late.URL); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Peers != 2 || st.AlivePeers != 2 || st.RingJoins != 1 {
		t.Fatalf("after announce: %+v, want 2 live peers and 1 ring join", st)
	}
	// Announcing again is idempotent: already a live member.
	if err := cluster.Announce(context.Background(), nil, ts.URL, late.URL); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.RingJoins != 1 || st.AlivePeers != 2 {
		t.Fatalf("re-announce not idempotent: %+v", st)
	}

	res, err := c.Sweep(context.Background(), engine.SweepSpec{Name: "post-join", Banks: []int{2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status.Failed != 0 || res.Status.Canceled != 0 {
		t.Fatalf("post-join sweep: %+v", res.Status)
	}
	for _, sh := range c.Stats().Shards {
		if sh.Routed == 0 {
			t.Errorf("shard %s routed no jobs; the joined node never took its keyspace share", sh.Peer)
		}
	}
}

// TestReplicatedOwnership: with OwnerReplicas=2 every merged result is
// written through to its second ring owner, so killing a job's primary
// owner loses nothing — the coordinator's job proxy serves it from the
// replica and counts the replica read.
func TestReplicatedOwnership(t *testing.T) {
	cl := clustertest.Start(t, 3, clustertest.Options{
		Replicas:       2,
		HealthInterval: -1, // membership frozen: the kill below must not re-shape the ring
	})
	c := cl.Coordinator(t)
	ts := httptest.NewServer(cluster.NewServer(c, cluster.ServerConfig{}).Handler())
	t.Cleanup(ts.Close)

	spec := elasticSpec("replicated")
	h, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	res, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status.Failed != 0 || res.Status.Canceled != 0 {
		t.Fatalf("sweep: %+v", res.Status)
	}
	total := uint64(len(h.Jobs()))

	// Replication is async; every job gets exactly one write-through
	// (two owners, the dispatch owner already has it).
	waitFor(t, 30*time.Second, func() bool { return c.Stats().ReplicaWrites >= total },
		"replica write-throughs never completed")
	st := c.Stats()
	if st.ReplicaWrites != total || st.ReplicaWriteFailures != 0 {
		t.Fatalf("replica writes = %d (failures %d), want %d clean", st.ReplicaWrites, st.ReplicaWriteFailures, total)
	}
	// Every result is resident on both of its ring owners' engines.
	for _, j := range h.Jobs() {
		id := j.ID()
		holders := 0
		for _, n := range cl.Nodes {
			if _, ok := n.Engine.Job(id); ok {
				holders++
			}
		}
		if holders < 2 {
			t.Fatalf("job %s resident on %d nodes, want >= 2", id, holders)
		}
	}

	// Kill a job's primary owner: the read proxy falls through to the
	// replica (the dead primary is still in the frozen ring, so the
	// fallback is a genuine replica read).
	victimJob := h.Jobs()[0].ID()
	primary, _ := c.OwnerOf(victimJob)
	cl.ByURL(primary).Kill()
	var got engine.JobResult
	if code := getJSON(t, ts.URL+"/v1/jobs/"+victimJob, &got); code != http.StatusOK {
		t.Fatalf("job read after killing its primary owner: status %d", code)
	}
	if got.ID != victimJob || got.Run == nil || got.Projection == nil {
		t.Fatalf("replica served a bad result: %+v", got)
	}
	if st := c.Stats(); st.ReplicaReads < 1 {
		t.Errorf("replica reads = %d, want >= 1", st.ReplicaReads)
	}
}

// TestStreamSeverFallsBackToPolling is the push-dataplane degradation
// scenario: one shard runs with event streaming disabled (a node that
// predates the feature) and the live shard streams are severed
// mid-sweep. The coordinator must degrade those dispatches to the
// status poll loop, finish the sweep byte-identical to the 1-shard
// reference, and never re-simulate a job merged before the sever —
// i.e. falling off the stream costs latency, not work.
func TestStreamSeverFallsBackToPolling(t *testing.T) {
	spec := elasticSpec("stream-sever")
	want := referenceResults(t, spec)

	// Node 2 is built with streaming disabled, so its dispatch counts a
	// fallback poll from the start; nodes 0 and 1 stream until severed.
	cl := clustertest.Start(t, 3, clustertest.Options{
		GenDelay:        50 * time.Millisecond,
		StreamlessNodes: []int{2},
	})
	c := cl.Coordinator(t)
	h, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	total := len(h.Jobs())

	// Wait for a live stream and at least one merged result, mid-sweep.
	waitFor(t, time.Minute, func() bool {
		st := c.Stats()
		return st.StreamsOpened >= 1 && st.JobsMerged >= 1 && h.Status().State == "running"
	}, "no mid-sweep sever window (stream open + >= 1 merge)")

	// Snapshot the protected set and the per-node run counters, then
	// keep severing established connections — event streams included —
	// until a dispatch demonstrably degrades to polling. The listeners
	// stay up, so health probes (fresh connections) keep passing: no
	// eviction, no re-route, just a stream falling back.
	runsAtSever := make(map[string]uint64)
	for _, n := range cl.Nodes {
		runsAtSever[n.Name] = n.Engine.Stats().RunsExecuted
	}
	mergedAtSever := 0
	for _, r := range h.Results() {
		if r != nil && r.Err == "" && !r.Canceled {
			mergedAtSever++
		}
	}
	for c.Stats().FallbackPolls == 0 && h.Status().State == "running" {
		cl.Nodes[0].SeverConnections()
		cl.Nodes[1].SeverConnections()
		time.Sleep(2 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	res, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status.State != "done" || res.Status.Failed != 0 || res.Status.Canceled != 0 {
		t.Fatalf("sweep did not complete cleanly across the sever: %+v", res.Status)
	}
	assertByteIdentical(t, want, resultsByID(t, res))

	st := c.Stats()
	if st.StreamsOpened < 1 {
		t.Errorf("streams opened = %d, want >= 1 (push path never engaged)", st.StreamsOpened)
	}
	if st.FallbackPolls < 1 {
		t.Errorf("fallback polls = %d, want >= 1 (no dispatch degraded)", st.FallbackPolls)
	}
	if st.JobsMerged != uint64(total) {
		t.Errorf("merged %d results, want %d", st.JobsMerged, total)
	}

	// Zero re-simulation of already-merged jobs, by counters: the sever
	// breaks connections, not nodes, so post-sever simulations anywhere
	// are bounded by the unmerged remainder.
	var postSeverRuns uint64
	for _, n := range cl.Nodes {
		postSeverRuns += n.Engine.Stats().RunsExecuted - runsAtSever[n.Name]
	}
	if maxNew := uint64(total - mergedAtSever); postSeverRuns > maxNew {
		t.Errorf("post-sever simulations = %d, want <= %d (total %d - %d merged before the sever): an already-merged job was re-simulated",
			postSeverRuns, maxNew, total, mergedAtSever)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
