// Command spes-router fronts a fleet of spes-serve shards as one
// verification service: each pair of a batch is consistent-hashed onto
// the shard ring by a hash of its request text, sub-batches are forwarded
// concurrently, and verdicts are reassembled in request order. Shards that
// shed (503 + Retry-After) are retried with their hint honored; shards
// that die fail their pairs over to the ring successor — sound, because
// verdicts are deterministic. The router never parses a query, so it
// takes no schema: the shards hold the catalog.
//
// Usage:
//
//	spes-router -shards a=http://127.0.0.1:8081,b=http://127.0.0.1:8082
//	spes-router -addr :8080 -shards http://10.0.0.1:8081,http://10.0.0.2:8081
//
// Each -shards entry is [id=]url; an omitted id defaults to the URL's
// host:port. IDs are ring identity: keep them stable across shard
// restarts so a rebooted shard gets its key range (and its warm store)
// back.
//
// Endpoints (wire-compatible with a single spes-serve):
//
//	POST /v1/verify           routed to the owning shard
//	POST /v1/verify/batch     split, forwarded, reassembled in order
//	GET  /healthz             router + per-shard membership view
//	GET  /v1/cluster/stats    aggregated per-shard engine stats
//	GET  /metrics             router forward/retry/failover counters
//
// SIGINT/SIGTERM drains: in-flight routed requests get -shutdown-grace to
// finish, then remaining forwards are abandoned (the shards degrade that
// work under their own drain rules).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"spes/internal/cluster"
	"spes/internal/fault"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		shardsFlag = flag.String("shards", "", "comma-separated shard list, each [id=]url")
		vnodes     = flag.Int("vnodes", cluster.DefaultVirtualNodes, "virtual nodes per shard on the hash ring")
		probeEvery = flag.Duration("probe-interval", 2*time.Second, "how often to health-check every shard")
		reprobe    = flag.Duration("reprobe-base", 250*time.Millisecond, "starting delay of the down-shard re-admission prober (jittered exponential backoff; < 0 disables)")
		reprobeMax = flag.Duration("reprobe-max", 5*time.Second, "re-admission backoff ceiling")
		fwdTimeout = flag.Duration("forward-timeout", 60*time.Second, "per-attempt forward timeout to one shard")
		maxRetries = flag.Int("shed-retries", 2, "503s to ride out per shard (honoring Retry-After) before failing over")
		retryCap   = flag.Duration("retry-after-cap", 5*time.Second, "upper bound on one honored Retry-After wait")
		maxBatch   = flag.Int("max-batch-pairs", 0, "pairs accepted per batch request (default 1024)")
		grace      = flag.Duration("shutdown-grace", 10*time.Second, "drain window before in-flight forwards are abandoned")
		faults     = flag.String("faults", "", `chaos-testing fault spec (also read from SPES_FAULTS; arm site router-forward to exercise failover)`)
	)
	flag.Parse()

	fail := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "spes-router: "+format+"\n", args...)
		os.Exit(2)
	}

	shards, err := parseShards(*shardsFlag)
	if err != nil {
		fail("%v", err)
	}

	if spec := *faults; spec != "" || os.Getenv("SPES_FAULTS") != "" {
		if spec == "" {
			spec = os.Getenv("SPES_FAULTS")
		}
		if err := fault.EnableSpec(spec); err != nil {
			fail("%v", err)
		}
		fmt.Printf("spes-router: FAULT INJECTION ARMED (%s)\n", fault.Describe())
	}

	rt := cluster.NewRouter(cluster.Config{
		Shards:         shards,
		VirtualNodes:   *vnodes,
		ProbeInterval:  *probeEvery,
		ReprobeBase:    *reprobe,
		ReprobeMax:     *reprobeMax,
		ForwardTimeout: *fwdTimeout,
		MaxShedRetries: *maxRetries,
		RetryAfterCap:  *retryCap,
		MaxBatchPairs:  *maxBatch,
	})

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fail("listen: %v", err)
	}
	// Printed after the bind so scripts using port 0 can read the real
	// address off the first line.
	fmt.Printf("spes-router: listening on %s\n", l.Addr())
	for _, s := range shards {
		fmt.Printf("spes-router: shard %s -> %s\n", s.ID, s.URL)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- rt.Serve(l) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if err != nil {
			fail("serve: %v", err)
		}
	case sig := <-sigCh:
		fmt.Printf("spes-router: %v; draining (grace %v)\n", sig, *grace)
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := rt.Shutdown(ctx); err != nil {
			fail("shutdown: %v", err)
		}
		<-errCh // Serve returns nil after Shutdown
		fmt.Printf("spes-router: drained\n")
	}
}

// parseShards parses the -shards flag: comma-separated [id=]url entries.
func parseShards(spec string) ([]cluster.Shard, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("-shards is required (comma-separated [id=]url list)")
	}
	var out []cluster.Shard
	seen := map[string]bool{}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		id, rawURL, hasID := strings.Cut(entry, "=")
		if !hasID || strings.Contains(id, "://") {
			// "http://host:port" — the '=' cut split inside the URL or
			// there was no '=' at all; the whole entry is the URL.
			id, rawURL = "", entry
		}
		u, err := url.Parse(rawURL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("shard %q: want [id=]http://host:port", entry)
		}
		if id == "" {
			id = u.Host
		}
		if seen[id] {
			return nil, fmt.Errorf("duplicate shard id %q", id)
		}
		seen[id] = true
		out = append(out, cluster.Shard{ID: id, URL: strings.TrimSuffix(rawURL, "/")})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-shards named no shards")
	}
	return out, nil
}
