// Command meghd runs the Megh scheduler as an HTTP service — the "global
// resource manager" of paper §3.1 as a deployable component. A monitoring
// pipeline POSTs per-interval utilization snapshots; meghd answers with
// live-migration decisions, learns from posted cost feedback, and
// checkpoints its Q-table so restarts lose nothing.
//
// Usage:
//
//	meghd -vms 1052 -hosts 800 -listen :8080 -checkpoint /var/lib/megh/state
//
// One meghd can also serve many independent data centers as named
// sessions, each with its own learner, trace ring, and checkpoint file:
//
//	meghd -vms 1052 -hosts 800 -checkpoint-dir /var/lib/megh/sessions -max-sessions 64
//
// API (see the megh/internal/server package doc for request/response
// bodies):
//
//	PUT    /v2/sessions/{id}            create (or idempotently re-assert) a session
//	GET    /v2/sessions                 list sessions
//	GET    /v2/sessions/{id}            session info (spec, residency, counters)
//	DELETE /v2/sessions/{id}            delete a session and its checkpoint
//	POST   /v2/sessions/{id}/decide     migration decision for that session
//	POST   /v2/sessions/{id}/decide/batch  many observe→decide steps in one request
//	POST   /v2/sessions/{id}/feedback   observed step cost for that session
//	GET    /v2/sessions/{id}/stats      learner internals for that session
//	POST   /v2/sessions/{id}/checkpoint persist that session now
//	GET    /v2/sessions/{id}/trace/tail newest buffered trace events
//	GET    /v2/sessions/{id}/metrics    per-session Prometheus text
//	GET    /v2/sessions/{id}/health     learning-health snapshot (never thaws an evicted session)
//	GET    /v2/health                   fleet roll-up: verdict histogram, worst-N sessions,
//	                                    decide-latency SLO burn rates, latency exemplars
//
//	GET  /metrics        → Prometheus text format (request counters, decide
//	                       latency histogram, learner gauges)
//	GET  /healthz        → "ok"
//	GET  /debug/pprof/*  → live CPU/heap/goroutine profiles
//
// Cluster mode shards the /v2 sessions across several meghd nodes by
// consistent hashing, proxies requests to each session's owner, and
// replicates every checkpoint to the session's ring successors so a node
// crash loses no learning (the new owner promotes its replica on the
// session's next touch):
//
//	meghd -vms 1052 -hosts 800 -checkpoint-dir /var/lib/megh/sessions \
//	  -cluster-node a -cluster-advertise http://10.0.0.1:8080 \
//	  -cluster-peers b=http://10.0.0.2:8080,c=http://10.0.0.3:8080
//
//	GET    /v2/cluster                  membership view (answers enabled=false unclustered)
//	GET    /v2/cluster/route/{id}       where a session ID lands on the ring
//	PUT    /v2/cluster/replicas/{id}    peer pushing a checkpoint image for safekeeping
//	GET    /v2/cluster/replicas/{id}    stored replica image
//	DELETE /v2/cluster/replicas/{id}    drop a replica image
//	POST   /v2/cluster/rebalance        hand misplaced sessions to their ring owners
//
// -vms and -hosts size the reserved "default" session, served at
// /v2/sessions/default, checkpointed to -checkpoint (else
// <-checkpoint-dir>/default.ckpt) and restored from that file at startup;
// an image of another world size there is a startup error.
//
// Observability: -trace FILE appends one JSONL event per decision and per
// feedback post (analyse with meghtrace); -log-level picks the stderr log
// verbosity.
//
// Lifecycle: SIGINT/SIGTERM drains in-flight requests (up to
// -drain-timeout) and writes a final checkpoint before exiting; with
// -checkpoint-every > 0 the state is also persisted periodically, so a
// crash loses at most one period of learning.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"megh/internal/server"
	"megh/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "meghd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen     = flag.String("listen", ":8080", "address to serve on")
		vms        = flag.Int("vms", 0, "number of virtual machines (N, required)")
		hosts      = flag.Int("hosts", 0, "number of physical machines (M, required)")
		overload   = flag.Float64("overload", 0.70, "overload threshold β")
		step       = flag.Float64("step", 300, "monitoring interval τ in seconds")
		checkpoint = flag.String("checkpoint", "", "default-session state file (restored on start if present)")
		ckptDir    = flag.String("checkpoint-dir", "",
			"directory for per-session checkpoint files (enables eviction and restart restore for /v2 sessions)")
		maxSessions = flag.Int("max-sessions", 0,
			"max learners resident in memory; 0 = unlimited (>0 needs -checkpoint-dir; LRU sessions are checkpointed and evicted)")
		maxInFlight = flag.Int("max-inflight", 0,
			"max concurrent in-flight decisions (batches weigh their item count) before shedding 429s; 0 = unlimited")
		ckptEvery = flag.Duration("checkpoint-every", 5*time.Minute,
			"periodic checkpoint interval; 0 disables (needs -checkpoint or -checkpoint-dir)")
		drain = flag.Duration("drain-timeout", 10*time.Second,
			"how long to wait for in-flight requests on shutdown")
		sloDecideP99 = flag.Float64("slo-decide-p99", 0,
			"decide-latency SLO objective in seconds for the burn-rate tracking on /v2/health and /metrics; 0 = default, <0 disables")
		metricsTopK = flag.Int("metrics-session-topk", 0,
			"sessions keeping their own label on the fleet /metrics block (busiest by decisions; the rest fold into session=\"other\"); 0 = default, <0 unbounded")
		clusterNode = flag.String("cluster-node", "",
			"this node's cluster name; setting it enables cluster mode (needs -checkpoint-dir and -cluster-advertise)")
		clusterAdvertise = flag.String("cluster-advertise", "",
			"base URL peers use to reach this node, e.g. http://10.0.0.1:8080")
		clusterPeers = flag.String("cluster-peers", "",
			"comma-separated name=url peer list; an entry matching -cluster-node is ignored, so all nodes can share one list")
		clusterReplicas = flag.Int("cluster-replicas", 0,
			"nodes holding each session's checkpoint, owner included; 0 = default (2)")
		clusterHeartbeat = flag.Duration("cluster-heartbeat", 0,
			"peer probe cadence; 0 = default (1s)")
		clusterFailAfter = flag.Int("cluster-fail-after", 0,
			"consecutive failed probes before a peer is considered dead; 0 = default (3)")
		seed      = flag.Int64("seed", time.Now().UnixNano(), "exploration seed")
		traceOut  = flag.String("trace", "", "append structured trace events (JSONL) to this file")
		traceRing = flag.Int("trace-ring", trace.DefaultRingSize,
			"trace events retained in memory for GET /v2/sessions/default/trace/tail")
		traceTimings = flag.Bool("trace-timings", false,
			"record wall-clock span timings in trace events (nondeterministic)")
		logLevel = flag.String("log-level", "info", "log verbosity: debug, info, warn, or error")
	)
	flag.Parse()

	level, err := parseLogLevel(*logLevel)
	if err != nil {
		return err
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	if *vms <= 0 || *hosts <= 0 {
		return fmt.Errorf("-vms and -hosts are required and must be positive")
	}

	// The tracer is on by default with only the in-memory ring (feeding
	// GET /v2/sessions/default/trace/tail); -trace adds the JSONL file sink
	// and -trace-ring 0 without -trace turns tracing off entirely.
	var tracer *trace.Tracer
	if *traceOut != "" || *traceRing > 0 {
		tracer, err = trace.New(trace.Options{
			Path: *traceOut, RingSize: *traceRing, Timings: *traceTimings})
		if err != nil {
			return fmt.Errorf("opening trace sink: %w", err)
		}
		defer func() {
			if cerr := tracer.Close(); cerr != nil {
				logger.Error(fmt.Sprintf("closing trace sink: %v", cerr))
			}
		}()
		if *traceOut != "" {
			logger.Info(fmt.Sprintf("tracing decisions to %s (ring=%d, timings=%t)",
				*traceOut, *traceRing, *traceTimings))
		}
	}

	var clusterCfg *server.ClusterConfig
	if *clusterNode != "" {
		peers, err := parsePeers(*clusterPeers)
		if err != nil {
			return err
		}
		clusterCfg = &server.ClusterConfig{
			NodeName:       *clusterNode,
			AdvertiseURL:   *clusterAdvertise,
			Peers:          peers,
			Replicas:       *clusterReplicas,
			HeartbeatEvery: *clusterHeartbeat,
			FailAfter:      *clusterFailAfter,
		}
	}

	svc, err := server.New(server.Config{
		NumVMs:             *vms,
		NumHosts:           *hosts,
		OverloadThreshold:  *overload,
		StepSeconds:        *step,
		CheckpointPath:     *checkpoint,
		CheckpointDir:      *ckptDir,
		MaxSessions:        *maxSessions,
		MaxInFlight:        *maxInFlight,
		Seed:               *seed,
		Tracer:             tracer,
		SLODecideP99:       *sloDecideP99,
		MetricsSessionTopK: *metricsTopK,
		Cluster:            clusterCfg,
	})
	if err != nil {
		return err
	}
	logger.Info(fmt.Sprintf("serving %d VMs × %d hosts on %s (β=%.2f, τ=%.0fs, checkpoint=%q)",
		*vms, *hosts, *listen, *overload, *step, *checkpoint))
	if *ckptDir != "" {
		logger.Info(fmt.Sprintf("sessions: checkpoint-dir=%s max-sessions=%d", *ckptDir, *maxSessions))
	}
	srv := &http.Server{
		Addr:              *listen,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if clusterCfg != nil {
		logger.Info(fmt.Sprintf("cluster: node=%s advertise=%s peers=%d replicas=%d",
			clusterCfg.NodeName, clusterCfg.AdvertiseURL, len(clusterCfg.Peers), clusterCfg.Replicas))
		go svc.StartCluster(ctx)
	}

	// Periodic checkpoints bound how much learning a crash can lose.
	// CheckpointAll covers every resident session, the default one
	// included, so the single-tenant and multi-tenant paths share it.
	if (*checkpoint != "" || *ckptDir != "") && *ckptEvery > 0 {
		go func() {
			ticker := time.NewTicker(*ckptEvery)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					if n, err := svc.CheckpointAll(); err != nil {
						logger.Warn(fmt.Sprintf("periodic checkpoint failed: %v", err))
					} else {
						logger.Debug(fmt.Sprintf("checkpointed %d session(s)", n))
					}
				}
			}
		}()
	}

	errc := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting, drain in-flight requests, then
	// persist the learner one last time so no learning is lost.
	logger.Info(fmt.Sprintf("shutting down (draining up to %s)", *drain))
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	shutdownErr := srv.Shutdown(shutdownCtx)
	if *checkpoint != "" || *ckptDir != "" {
		if n, err := svc.CheckpointAll(); err != nil {
			logger.Error(fmt.Sprintf("final checkpoint failed: %v", err))
			if shutdownErr == nil {
				shutdownErr = err
			}
		} else {
			logger.Info(fmt.Sprintf("final checkpoint: %d session(s) persisted", n))
		}
	}
	// Let the final checkpoint's replica pushes land before exiting, so a
	// clean shutdown leaves peers holding this node's freshest learning.
	svc.WaitReplication()
	return shutdownErr
}

// parseLogLevel resolves a -log-level flag value: debug, info, warn or
// error, in any case.
func parseLogLevel(s string) (slog.Level, error) {
	var level slog.Level
	if err := level.UnmarshalText([]byte(s)); err != nil {
		return 0, fmt.Errorf("unknown -log-level %q (want debug|info|warn|error)", s)
	}
	return level, nil
}

// parsePeers decodes a "name=url,name=url" peer list.
func parsePeers(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	peers := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("-cluster-peers entry %q is not name=url", part)
		}
		if _, dup := peers[name]; dup {
			return nil, fmt.Errorf("-cluster-peers lists node %q twice", name)
		}
		peers[name] = url
	}
	return peers, nil
}
