// Command suud serves the SUU planner over HTTP/JSON: POST /v1/plan
// (LP-rounded oblivious schedules), POST /v1/plan/batch (many plan items
// per request with per-item status, intra-batch dedupe, and cost-weighted
// admission), POST /v1/estimate (Monte Carlo makespan estimates, NDJSON
// streaming with "stream": true), GET /healthz, GET /metrics. Requests are
// admission-controlled, coalesced, and cached content-addressed — see
// internal/service.
//
// Run it:
//
//	suud -addr 127.0.0.1:8650 -workers 8 -queue 64
//
// and drive it with cmd/suuload. SIGINT/SIGTERM shut down gracefully:
// /readyz flips to 503 first, the listener closes, in-flight requests
// drain, and the planner's detached work is awaited.
//
// Overload behavior is configurable: -degraded-policy picks between
// rejecting with 429 (reject), serving uncertified greedy fallback plans
// for independent-job requests (independent), or for everything (all)
// once admission pressure crosses -brownout-threshold. -chaos enables
// the fault-injection harness (internal/faults) for resilience drills.
//
// -store-dir adds a crash-safe durable plan store (internal/store) under
// the response cache: computed plans persist to an append-only checksummed
// log and survive restarts, so a warm replica recomputes nothing. -peers
// (with -self) replicates the store across a static fleet: local misses
// fall through to the key's ring owners, writes fan out asynchronously,
// and a restarted replica pulls what it missed before /readyz goes green.
// -fsync picks the durability point (always | interval | never); the
// -chaos-disk-* and -chaos-peer-error-p flags inject storage and
// replication faults for drills.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/faults"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/trace"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8650", "listen address")
		workers      = flag.Int("workers", 0, "concurrent computations (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 0, "admission cost units waiting for a worker slot before 429s (0 = 4x workers)")
		cacheCap     = flag.Int("cache-cap", 4096, "cached responses")
		maxTrials    = flag.Int("max-trials", 10000, "per-request Monte Carlo budget")
		maxBatch     = flag.Int("max-batch", 256, "items per /v1/plan/batch request")
		maxItemCost  = flag.Int("max-item-cost", 64, "per-plan admission cost budget (a /v1/plan request or one batch item), in n·m/1024 units")
		trialWorkers = flag.Int("trial-workers", 2, "Monte Carlo workers per estimate")
		drainWait    = flag.Duration("drain", 30*time.Second, "graceful shutdown budget")

		degradedPolicy = flag.String("degraded-policy", service.DegradeNever,
			"overload response: reject (429s), independent (greedy fallback plans for independent-job requests), or all")
		brownout = flag.Float64("brownout-threshold", 0.75,
			"queue-pressure fraction (0..1] at which degraded fallbacks kick in")

		storeDir      = flag.String("store-dir", "", "durable plan store directory (empty = no disk tier)")
		storeMemBytes = flag.Int64("store-mem-bytes", 64<<20, "in-memory store tier budget in bytes (0 = no mem tier)")
		fsyncMode     = flag.String("fsync", "interval", "disk store durability: always, interval, or never")
		fsyncEvery    = flag.Duration("fsync-interval", 100*time.Millisecond, "sync period for -fsync interval")
		compactBytes  = flag.Int64("store-compact-bytes", 256<<20, "auto-compact the log once it exceeds this and most bytes are dead (0 = off)")
		self          = flag.String("self", "", "this replica's base URL as peers reach it (required with -peers)")
		peers         = flag.String("peers", "", "comma-separated replica base URLs, self included; enables the replicated store")
		replication   = flag.Int("replication", 2, "ring owners per key in the replicated store")

		chaos        = flag.Bool("chaos", false, "enable fault injection (the -chaos-* rates)")
		chaosSeed    = flag.Int64("chaos-seed", 1, "fault-stream seed (same seed, same arrival order => same faults)")
		chaosLatP    = flag.Float64("chaos-latency-p", 0.10, "P(injected request latency)")
		chaosLat     = flag.Duration("chaos-latency", 50*time.Millisecond, "injected latency magnitude (±50% jitter)")
		chaosErrP    = flag.Float64("chaos-error-p", 0.05, "P(injected 503 response)")
		chaosPanicP  = flag.Float64("chaos-panic-p", 0.02, "P(injected handler panic; kills the connection)")
		chaosStallP  = flag.Float64("chaos-stall-p", 0, "P(injected slow-solve stall at a compute checkpoint)")
		chaosStall   = flag.Duration("chaos-stall", 100*time.Millisecond, "stall magnitude (±50% jitter)")
		chaosCErrP   = flag.Float64("chaos-compute-error-p", 0, "P(injected compute error at a checkpoint)")
		chaosCPanicP = flag.Float64("chaos-compute-panic-p", 0, "P(injected compute panic at a checkpoint)")

		traceSample = flag.Float64("trace-sample", 0.01, "request-trace sampling probability in [0,1]; errors, degraded serves, and the slowest requests are always kept")
		traceRing   = flag.Int("trace-ring", 512, "kept traces retained for /debug/traces (0 disables the recorder)")
		traceSlow   = flag.Int("trace-slow", 32, "slowest traces pinned in /debug/traces regardless of age")
		traceLog    = flag.String("trace-log", "", "append kept traces to this binary CRC-framed log file")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = off)")
		logLevel    = flag.String("log-level", "info", "log verbosity: debug, info, warn, or error")

		chaosPeerErrP   = flag.Float64("chaos-peer-error-p", 0, "P(injected 503 on /v1/store/* peer traffic only; independent of -chaos)")
		chaosBitFlipP   = flag.Float64("chaos-disk-bitflip-p", 0, "P(flipping one random bit of a disk record on read; needs -chaos)")
		chaosShortReadP = flag.Float64("chaos-disk-shortread-p", 0, "P(zeroing a random tail of a disk record on read; needs -chaos)")
		chaosENOSPC     = flag.Int64("chaos-disk-enospc-after", 0, "fail disk appends with ENOSPC after this many bytes (0 = off; needs -chaos)")
	)
	flag.Parse()

	if lv, ok := trace.LevelFromString(*logLevel); ok {
		trace.SetLevel(lv)
	} else {
		trace.Fatal("bad -log-level", "got", *logLevel, "want", "debug|info|warn|error")
	}

	switch *degradedPolicy {
	case service.DegradeNever, service.DegradeIndependent, service.DegradeAll:
	default:
		trace.Fatal("bad -degraded-policy",
			"got", *degradedPolicy,
			"want", fmt.Sprintf("%s|%s|%s", service.DegradeNever, service.DegradeIndependent, service.DegradeAll))
	}

	var traceLogWriter *trace.LogWriter
	if *traceLog != "" {
		lw, err := trace.OpenLog(*traceLog)
		if err != nil {
			trace.Fatal("opening trace log", "path", *traceLog, "err", err)
		}
		traceLogWriter = lw
	}

	var inj *faults.Injector
	if *chaos {
		inj = faults.New(faults.Config{
			Seed:         *chaosSeed,
			LatencyP:     *chaosLatP,
			Latency:      *chaosLat,
			ErrorP:       *chaosErrP,
			PanicP:       *chaosPanicP,
			HTTPMethod:   http.MethodPost, // keep /healthz, /readyz, /metrics probes clean
			StallP:       *chaosStallP,
			Stall:        *chaosStall,
			ComputeErrP:  *chaosCErrP,
			ComputePanic: *chaosCPanicP,
		})
		if inj == nil {
			trace.Warn("-chaos set but every rate is zero; injecting nothing")
		}
	}

	// Compose the plan store bottom-up: mem LRU over the disk log, the
	// replication layer over both. The planner reads through whatever stack
	// comes out; a nil store means compute-and-LRU only, exactly the old
	// behavior.
	var planStore store.PlanStore
	{
		var tiers []store.PlanStore
		if *storeMemBytes > 0 {
			tiers = append(tiers, store.NewMem(*storeMemBytes, 0))
		}
		if *storeDir != "" {
			pol, err := store.ParseFsyncPolicy(*fsyncMode)
			if err != nil {
				trace.Fatal("bad -fsync", "err", err)
			}
			dcfg := store.DiskConfig{
				Fsync:         pol,
				FsyncInterval: *fsyncEvery,
				CompactBytes:  *compactBytes,
			}
			if *chaos {
				if dinj := faults.NewDiskInjector(faults.DiskConfig{
					Seed:             *chaosSeed,
					BitFlipP:         *chaosBitFlipP,
					ShortReadP:       *chaosShortReadP,
					ENOSPC:           *chaosENOSPC > 0,
					ENOSPCAfterBytes: *chaosENOSPC,
				}); dinj != nil {
					dcfg.WriteFault = dinj.WriteFault()
					dcfg.ReadFault = dinj.ReadFault()
				}
			}
			disk, err := store.Open(*storeDir, dcfg)
			if err != nil {
				trace.Fatal("opening store", "dir", *storeDir, "err", err)
			}
			tiers = append(tiers, disk)
		}
		switch len(tiers) {
		case 0:
		case 1:
			planStore = tiers[0]
		default:
			planStore = store.NewTiered(tiers...)
		}
		if *peers != "" {
			var peerList []string
			for _, p := range strings.Split(*peers, ",") {
				if p = strings.TrimSpace(p); p != "" {
					peerList = append(peerList, p)
				}
			}
			if *self == "" {
				trace.Fatal("-peers needs -self (this replica's URL in the peer list)")
			}
			if planStore == nil {
				trace.Fatal("-peers needs a local store tier (-store-dir and/or -store-mem-bytes)")
			}
			rep, err := store.NewReplicated(planStore, store.ReplicatedConfig{
				Self:        *self,
				Peers:       peerList,
				Replication: *replication,
				HandoffDir:  *storeDir, // hints persist next to the log; empty keeps them in memory
			})
			if err != nil {
				trace.Fatal("replicated store", "err", err)
			}
			planStore = rep
		}
	}

	planner := service.NewPlanner(service.Config{
		Workers:           *workers,
		QueueDepth:        *queue,
		CacheCap:          *cacheCap,
		MaxTrials:         *maxTrials,
		MaxBatchItems:     *maxBatch,
		MaxItemCost:       *maxItemCost,
		TrialWorkers:      *trialWorkers,
		DegradedPolicy:    *degradedPolicy,
		BrownoutThreshold: *brownout,
		ComputeHook:       inj.ComputeHook(),
		Store:             planStore,
		TraceSample:       *traceSample,
		TraceRing:         *traceRing,
		TraceSlowN:        *traceSlow,
		TraceLog:          traceLogWriter,
	})
	var handler http.Handler = service.NewServer(planner)
	if *chaosPeerErrP > 0 {
		// Peer-fault mode: a second injector scoped to the store's peer
		// protocol, so replication traffic degrades while client traffic
		// stays clean — the failover/handoff drill.
		handler = faults.New(faults.Config{
			Seed:           *chaosSeed + 1,
			ErrorP:         *chaosPeerErrP,
			HTTPMethod:     http.MethodPost,
			HTTPPathPrefix: "/v1/store/",
		}).Wrap(handler)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           inj.Wrap(handler),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := planner.Warmup(); err != nil {
		trace.Fatal("warmup failed", "err", err)
	}

	if *debugAddr != "" {
		// pprof on its own listener so profiling endpoints never share the
		// service port (or its chaos middleware) with production traffic.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dsrv := &http.Server{Addr: *debugAddr, Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := dsrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				trace.Warn("debug listener failed", "addr", *debugAddr, "err", err)
			}
		}()
		defer dsrv.Close()
		trace.Info("pprof listening", "addr", *debugAddr)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	cfg := planner.Config()
	storeName := "none"
	if planStore != nil {
		storeName = planStore.Name()
	}
	trace.Info("serving",
		"addr", *addr, "workers", cfg.Workers, "queue", cfg.QueueDepth,
		"cache", cfg.CacheCap,
		"policy", cfg.DegradedPolicy, "brownout", cfg.BrownoutThreshold,
		"store", storeName, "chaos", inj != nil,
		"trace_sample", *traceSample, "trace_ring", *traceRing)

	select {
	case err := <-errCh:
		trace.Fatal("listener failed", "err", err)
	case <-ctx.Done():
	}
	trace.Info("shutting down", "drain_budget", *drainWait)
	// Flip /readyz before closing the listener so load balancers stop
	// sending new work while in-flight requests drain.
	planner.BeginDrain()
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		trace.Warn("shutdown", "err", err)
	}
	planner.Close()
	// The planner is done issuing puts; now the store can flush and close.
	if planStore != nil {
		if err := planStore.Close(); err != nil {
			trace.Warn("closing store", "err", err)
		}
	}
	if traceLogWriter != nil {
		if err := traceLogWriter.Close(); err != nil {
			trace.Warn("closing trace log", "err", err)
		}
	}
	if inj != nil {
		trace.Info("chaos ledger", "snapshot", fmt.Sprintf("%+v", inj.Snapshot()))
	}
	trace.Info("drained", "final", planner.Metrics())
}
