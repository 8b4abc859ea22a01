// Command spes-serve runs the SPES prover as a long-lived HTTP/JSON
// verification service. One persistent engine backs every request, so the
// normalization memo and obligation cache warm up over the server's
// lifetime; admission control sheds overload with 503 and in-flight
// coalescing collapses concurrent identical requests into one proof.
//
// Usage:
//
//	spes-serve -schema schema.sql [-addr :8080]
//	spes-serve -corpus calcite -addr 127.0.0.1:0
//
// Endpoints:
//
//	POST /v1/verify        {"sql1": ..., "sql2": ..., "timeout_ms": ...}
//	POST /v1/verify/batch  {"pairs": [{"id","sql1","sql2"}, ...]}
//	GET  /healthz          readiness: "ok" serving, "draining" during shutdown
//	GET  /v1/stats         engine lifetime counters (router aggregation feed)
//	GET  /metrics
//
// Under spes-router, give each shard a stable -shard-id: it names the
// process in the router's ring, is echoed in every verify response, and
// labels the spes_shard_info metric.
//
// SIGINT/SIGTERM starts a graceful drain: in-flight verifications get
// -shutdown-grace to finish, then remaining solver work is cancelled
// (degrading those verdicts to not-proved — never a wrong answer).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"spes"
	"spes/internal/corpus"
	"spes/internal/fault"
	"spes/internal/schema"
	"spes/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		schemaPath  = flag.String("schema", "", "path to CREATE TABLE statements")
		corpusName  = flag.String("corpus", "", `built-in schema to serve instead of -schema ("calcite")`)
		timeout     = flag.Duration("timeout", 30*time.Second, "per-verification wall-clock ceiling")
		maxInFlight = flag.Int("max-inflight", runtime.GOMAXPROCS(0), "concurrently executing requests")
		maxQueue    = flag.Int("max-queue", 0, "requests queued beyond max-inflight before shedding 503s (default 4x max-inflight)")
		workers     = flag.Int("workers", runtime.GOMAXPROCS(0), "batch verification fan-out")
		cacheSize   = flag.Int("cache-size", 0, "obligation cache entries (0 = engine default)")
		grace       = flag.Duration("shutdown-grace", 10*time.Second, "drain window before in-flight work is cancelled")
		wdGrace     = flag.Duration("watchdog-grace", 0, "extra time past its deadline a stuck verification may hold a worker before the watchdog abandons it (0 = engine default)")
		storeDir    = flag.String("store-dir", "", "directory for the durable verdict store; restarts pointed at the same directory start warm (empty = no persistence)")
		highWater   = flag.Int("term-highwater", 0, "rotate the interner epoch when the term DAG reaches this many nodes, bounding term memory (0 = never rotate)")
		shardID     = flag.String("shard-id", "", "stable shard identity when serving behind spes-router; echoed in responses, /healthz, /v1/stats, and metrics")
		refuteBud   = flag.Int("refute-budget", 0, "search up to N concrete databases for a counterexample after each failed proof, answering refuted-with-witness (0 disables)")
		faults      = flag.String("faults", "", `chaos-testing fault spec, e.g. "seed=7,rate=25,sites=normalize|smt-model-round,kinds=panic|delay" (also read from SPES_FAULTS; never enable in production)`)
		replFrom    = flag.String("replicate-from", "", `peer shards whose verdict stores to tail in the background, as "id=url[,id=url...]"; requires -store-dir — this shard starts warm for their keyspaces on failover`)
		replEvery   = flag.Duration("replicate-interval", 500*time.Millisecond, "replication poll period once caught up (lagging tailers poll faster)")
	)
	flag.Parse()

	fail := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "spes-serve: "+format+"\n", args...)
		os.Exit(2)
	}

	cat, err := loadCatalog(*schemaPath, *corpusName)
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
		fmt.Printf("spes-serve: FAULT INJECTION ARMED (%s)\n", fault.Describe())
	}

	origins, err := parseReplicateFrom(*replFrom)
	if err != nil {
		fail("%v", err)
	}
	if len(origins) > 0 && *storeDir == "" {
		fail("-replicate-from requires -store-dir (replicated records land in this shard's own store)")
	}

	srv, err := server.New(server.Config{
		Catalog:           cat,
		VerifyTimeout:     *timeout,
		MaxInFlight:       *maxInFlight,
		MaxQueue:          *maxQueue,
		BatchWorkers:      *workers,
		CacheSize:         *cacheSize,
		WatchdogGrace:     *wdGrace,
		StorePath:         *storeDir,
		TermNodeHighWater: *highWater,
		ShardID:           *shardID,
		RefuteBudget:      *refuteBud,
		ReplicateFrom:     origins,
		ReplicateInterval: *replEvery,
	})
	if err != nil {
		fail("%v", err)
	}
	if st := srv.Store(); st != nil {
		ss := st.Snapshot()
		fmt.Printf("spes-serve: durable store %s (%d records, %d bytes loaded)\n", st.Path(), ss.Records, ss.Bytes)
	}
	if d := cat.ConstraintDigest(); d != "" {
		fmt.Printf("spes-serve: constraint digest %s\n", d)
	}
	for _, o := range origins {
		fmt.Printf("spes-serve: replicating from %s (%s)\n", o.ID, o.URL)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fail("listen: %v", err)
	}
	// Printed after the bind so scripts using port 0 can read the real
	// address off the first line.
	fmt.Printf("spes-serve: listening on %s\n", l.Addr())
	if *shardID != "" {
		fmt.Printf("spes-serve: shard-id %s\n", *shardID)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(l) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if err != nil {
			fail("serve: %v", err)
		}
	case sig := <-sigCh:
		fmt.Printf("spes-serve: %v; draining (grace %v)\n", sig, *grace)
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fail("shutdown: %v", err)
		}
		<-errCh // Serve returns nil after Shutdown
		st := srv.Stats()
		fmt.Printf("spes-serve: drained; lifetime pairs=%d equivalent=%d cache_hit_rate=%.2f panics_recovered=%d watchdog_aborts=%d store_hits=%d epochs=%d\n",
			st.Pairs, st.Equivalent, st.ObligationHitRate(), st.Panics, st.WatchdogAborts, st.StoreHits, st.InternerEpochs)
	}
}

// parseReplicateFrom parses "id=url[,id=url...]" into replication origins.
func parseReplicateFrom(spec string) ([]server.ReplicaOrigin, error) {
	if spec == "" {
		return nil, nil
	}
	var out []server.ReplicaOrigin
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf(`-replicate-from: %q is not "id=url"`, part)
		}
		out = append(out, server.ReplicaOrigin{ID: id, URL: strings.TrimRight(url, "/")})
	}
	return out, nil
}

// loadCatalog resolves exactly one of -schema / -corpus.
func loadCatalog(schemaPath, corpusName string) (*schema.Catalog, error) {
	switch {
	case schemaPath != "" && corpusName != "":
		return nil, fmt.Errorf("give either -schema or -corpus, not both")
	case schemaPath != "":
		ddl, err := os.ReadFile(schemaPath)
		if err != nil {
			return nil, fmt.Errorf("reading schema: %w", err)
		}
		cat, err := spes.ParseCatalog(string(ddl))
		if err != nil {
			return nil, fmt.Errorf("parsing schema: %w", err)
		}
		return cat, nil
	case corpusName == "calcite":
		return corpus.Catalog(), nil
	case corpusName != "":
		return nil, fmt.Errorf("unknown corpus %q (have: calcite)", corpusName)
	}
	return nil, fmt.Errorf("one of -schema or -corpus is required")
}
