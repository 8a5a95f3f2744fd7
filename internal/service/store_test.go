package service

import (
	"context"
	"testing"

	"repro/internal/store"
)

// planStoreInstances builds n distinct small instances.
func planStoreInstances(t *testing.T, n int) []*PlanRequest {
	t.Helper()
	reqs := make([]*PlanRequest, n)
	for i := range reqs {
		reqs[i] = testInstance(t, "uniform", 4, 10, int64(100+i))
	}
	return reqs
}

// samePlan compares the result-bearing fields, ignoring the serving
// provenance flags (Cached/Coalesced) that legitimately differ between a
// computed response and a store-served one.
func samePlan(a, b *PlanResponse) bool {
	if a.Fingerprint != b.Fingerprint || a.TStar != b.TStar || a.Length != b.Length ||
		a.LowerBound != b.LowerBound || len(a.Machines) != len(b.Machines) {
		return false
	}
	for i := range a.Machines {
		if len(a.Machines[i]) != len(b.Machines[i]) {
			return false
		}
		for j := range a.Machines[i] {
			if a.Machines[i][j] != b.Machines[i][j] {
				return false
			}
		}
	}
	return true
}

// TestPlannerStoreRestartWarm is the durability acceptance test: plan a
// workload against a disk-backed store, tear the whole service down,
// rebuild it on the same directory, and replay the workload. Every answer
// must come off the disk tier — zero plans recomputed — byte-for-byte
// equal to the originals.
func TestPlannerStoreRestartWarm(t *testing.T) {
	dir := t.TempDir()
	const n = 20
	reqs := planStoreInstances(t, n)

	st1, err := store.Open(dir, store.DiskConfig{Fsync: store.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	p1 := smallPlanner(func(c *Config) { c.Store = st1 })
	first := make([]*PlanResponse, n)
	for i, req := range reqs {
		if first[i], err = p1.Plan(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	m1 := p1.Metrics()
	if m1.PlansComputed != n {
		t.Fatalf("first run computed %d, want %d", m1.PlansComputed, n)
	}
	if m1.StoreEntries != n {
		t.Fatalf("store entries %d, want %d", m1.StoreEntries, n)
	}
	p1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// The restart: fresh store over the same directory, fresh planner
	// (empty LRU), same workload.
	st2, err := store.Open(dir, store.DiskConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	p2 := smallPlanner(func(c *Config) { c.Store = st2 })
	if err := p2.Warmup(); err != nil { // exercises the WaitWarm readiness gate
		t.Fatal(err)
	}
	defer p2.Close()
	for i, req := range reqs {
		resp, err := p2.Plan(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Cached {
			t.Fatalf("restart plan %d not marked served-from-shared-work", i)
		}
		if !samePlan(first[i], resp) {
			t.Fatalf("restart plan %d differs from the original", i)
		}
	}
	m2 := p2.Metrics()
	if m2.PlansComputed != 0 {
		t.Fatalf("restart recomputed %d plans, want 0", m2.PlansComputed)
	}
	if m2.StoreDiskHits != n {
		t.Fatalf("store_disk_hits=%d, want %d", m2.StoreDiskHits, n)
	}
	if m2.StoreCorrupt != 0 {
		t.Fatalf("store_corrupt_dropped=%d", m2.StoreCorrupt)
	}
	if m2.Stages["store.disk"].Count != n {
		t.Fatalf("store.disk stage: %+v", m2.Stages["store.disk"])
	}

	// The LRU was primed by the read-through: a second pass never touches
	// the store again.
	for _, req := range reqs {
		if _, err := p2.Plan(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	m3 := p2.Metrics()
	if m3.StoreDiskHits != n || m3.PlansComputed != 0 {
		t.Fatalf("second pass: disk_hits=%d computed=%d", m3.StoreDiskHits, m3.PlansComputed)
	}

	// The batch path reads through the same store: a batch of the same
	// items on a third fresh planner computes nothing.
	st3, err := store.Open(dir, store.DiskConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	p3 := smallPlanner(func(c *Config) { c.Store = st3; c.MaxBatchItems = n })
	defer p3.Close()
	items := make([]PlanRequest, n)
	for i, r := range reqs {
		items[i] = *r
	}
	bresp, err := p3.PlanBatch(context.Background(), &BatchPlanRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	if bresp.OK != n || bresp.Errors != 0 || bresp.Computed != 0 {
		t.Fatalf("batch over warm store: %+v", bresp)
	}
	if m := p3.Metrics(); m.PlansComputed != 0 || m.StoreDiskHits != n {
		t.Fatalf("batch metrics: computed=%d disk_hits=%d", m.PlansComputed, m.StoreDiskHits)
	}
	for i := range bresp.Items {
		if bresp.Items[i].Plan == nil || !samePlan(first[i], bresp.Items[i].Plan) {
			t.Fatalf("batch item %d differs from the original", i)
		}
	}
}

// TestStoreSharedAcrossPlanners pins the fleet value proposition in one
// process: two planners over one store compute each plan once, total.
func TestStoreSharedAcrossPlanners(t *testing.T) {
	st := store.NewMem(1<<22, 4)
	defer st.Close()
	reqs := planStoreInstances(t, 5)
	pA := smallPlanner(func(c *Config) { c.Store = st })
	defer pA.Close()
	pB := smallPlanner(func(c *Config) { c.Store = st })
	defer pB.Close()
	for _, req := range reqs {
		if _, err := pA.Plan(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	respA, err := pA.Plan(context.Background(), reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		resp, err := pB.Plan(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && !samePlan(respA, resp) {
			t.Fatal("planners disagree through the shared store")
		}
	}
	mA, mB := pA.Metrics(), pB.Metrics()
	if mA.PlansComputed != 5 || mB.PlansComputed != 0 {
		t.Fatalf("computed A=%d B=%d, want 5/0", mA.PlansComputed, mB.PlansComputed)
	}
	if mB.StoreMemHits != 5 {
		t.Fatalf("B mem hits %d", mB.StoreMemHits)
	}
	if mB.Stages["store.mem"].Count != 5 {
		t.Fatalf("B store.mem stage: %+v", mB.Stages["store.mem"])
	}
}

// TestDegradedPlansNeverPersisted pins the satellite fix: a brownout
// fallback must not reach any store tier, or a moment of overload would
// haunt every replica from disk.
func TestDegradedPlansNeverPersisted(t *testing.T) {
	st := store.NewMem(1<<20, 1)
	defer st.Close()
	p := smallPlanner(func(c *Config) { c.Store = st })
	defer p.Close()

	key := requestKey{kind: kindPlan, policy: "lp1", target: 0.5}
	p.storePut(key, testFrame(t, &PlanResponse{Degraded: true, Length: 7}), nil)
	if got := st.Stats(); got.Puts != 0 || got.Entries != 0 {
		t.Fatalf("degraded plan persisted: %+v", got)
	}

	// The same call with a certified plan does persist — the guard is
	// specific, not a dead store.
	p.storePut(key, testFrame(t, &PlanResponse{Length: 7}), nil)
	if got := st.Stats(); got.Puts != 1 || got.Entries != 1 {
		t.Fatalf("certified plan not persisted: %+v", got)
	}
	// And a degraded response never overwrites a certified one.
	p.storePut(key, testFrame(t, &PlanResponse{Degraded: true}), nil)
	if v, ok := p.storeGet(key, nil); !ok {
		t.Fatal("stored plan unreadable")
	} else if v.val.(*PlanResponse).Degraded {
		t.Fatal("degraded response overwrote the stored plan")
	}
}

// TestStoreKeyDerivation pins that every result-determining request
// parameter separates the content address — a collision here would serve
// a wrong payload to a different request.
func TestStoreKeyDerivation(t *testing.T) {
	base := requestKey{kind: kindPlan, policy: "lp1", target: 0.5, trials: 100, seed: 42}
	variants := []requestKey{
		{kind: kindEstimate, policy: "lp1", target: 0.5, trials: 100, seed: 42},
		{kind: kindPlan, policy: "lp2", target: 0.5, trials: 100, seed: 42},
		{kind: kindPlan, policy: "lp1", target: 0.75, trials: 100, seed: 42},
		{kind: kindPlan, policy: "lp1", target: 0.5, trials: 101, seed: 42},
		{kind: kindPlan, policy: "lp1", target: 0.5, trials: 100, seed: 43},
	}
	seen := map[store.Key]int{storeKeyOf(base): -1}
	for i, v := range variants {
		k := storeKeyOf(v)
		if prev, dup := seen[k]; dup {
			t.Fatalf("variant %d collides with %d: %v", i, prev, k)
		}
		seen[k] = i
	}
	// Deterministic: the address is a pure function of the request.
	if storeKeyOf(base) != storeKeyOf(base) {
		t.Fatal("key derivation not deterministic")
	}
	// And fingerprint changes move both lanes.
	fp1 := base
	fp1.fp.Hi = 123
	fp2 := base
	fp2.fp.Hi = 124
	if storeKeyOf(fp1) == storeKeyOf(fp2) {
		t.Fatal("fingerprint ignored by key derivation")
	}
}

// TestStoreDecodeMismatchIsMiss pins the envelope check: bytes stored for
// one kind never decode as another, so even a key collision degrades to a
// recompute instead of a mistyped response.
func TestStoreDecodeMismatchIsMiss(t *testing.T) {
	b, err := encodeStored(kindPlan, testFrame(t, &PlanResponse{Length: 3}).frame)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeStored(kindEstimate, b); err == nil {
		t.Fatal("plan bytes decoded as an estimate")
	}
	v, err := decodeStored(kindPlan, b)
	if err != nil {
		t.Fatal(err)
	}
	if v.val.(*PlanResponse).Length != 3 {
		t.Fatal("roundtrip lost the payload")
	}
	if _, err := decodeStored(kindPlan, []byte("not json")); err == nil {
		t.Fatal("garbage decoded")
	}
}
