package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"spes/internal/cluster"
	"spes/internal/engine"
	"spes/internal/schema"
	"spes/internal/server"
)

// FailoverReport is the warm-failover study: run the workload to steady
// state on two shards, SIGKILL-equivalently drop one, push the same
// stream again, and measure how warm the surviving shard answers the dead
// shard's slice. The study runs twice — with store-segment replication
// between the shards and without — so the artifact shows what replication
// buys, not just that failover functions.
type FailoverReport struct {
	Shards    int            `json:"shards"`
	DeadShard string         `json:"dead_shard"`
	Cases     []FailoverCase `json:"cases"`
	Note      string         `json:"note"`
}

// FailoverCase is one replication setting's measurement.
type FailoverCase struct {
	Replicated bool `json:"replicated"`

	// ReplicationCaughtUp reports whether every tailer had fully drained
	// its origin (position == origin's durable bytes) before the kill —
	// the precondition for the warm numbers below meaning anything.
	ReplicationCaughtUp bool `json:"replication_caught_up_before_kill"`

	SteadyWallMS   float64 `json:"steady_wall_ms"`
	PostKillWallMS float64 `json:"post_kill_wall_ms"`
	WallRatio      float64 `json:"wall_ratio"`

	// Warm rates are (obligation-cache hits + durable-store hits) over all
	// obligation lookups in the round: the fraction of proof work answered
	// without touching the solver. DeadSteadyWarmRate is the dead shard's
	// rate during the steady-state round; SuccessorWarmRate is the
	// survivor's rate during the post-kill round, when it absorbs the dead
	// shard's slice. The headline claim is that with replication the two
	// are within five points.
	DeadSteadyWarmRate float64 `json:"dead_steady_warm_rate"`
	SuccessorWarmRate  float64 `json:"successor_post_kill_warm_rate"`
	WarmRateGap        float64 `json:"warm_rate_gap"`

	// SuccessorStoreHits / SuccessorWitnessHits count post-kill answers
	// served from the survivor's durable store — with replication on,
	// these are the dead shard's verdicts doing work on the successor.
	SuccessorStoreHits   int64 `json:"successor_store_hits"`
	SuccessorWitnessHits int64 `json:"successor_witness_hits"`

	// OrphanedPairs is how many pairs the dead shard owned at steady
	// state; RouterFailovers counts the router's failover re-forwards
	// while re-homing them.
	OrphanedPairs   int64 `json:"orphaned_pairs"`
	RouterFailovers int64 `json:"router_failovers"`

	VerdictsIdentical bool `json:"verdicts_identical_post_kill"`

	// Headline pass/fail, evaluated for the replicated case (reported for
	// both so the cold baseline shows what failing looks like).
	HitRateWithin5Pts bool `json:"hit_rate_within_5_points"`
	WallWithin150Pct  bool `json:"wall_within_150_percent"`
}

// runFailover runs both cases of the study on the shared pair stream.
func runFailover(cat *schema.Catalog, stream []server.BatchPairJSON, chunk int) (FailoverReport, error) {
	rep := FailoverReport{
		Shards: 2,
		Note: "two shards behind the router; after a steady-state pass one shard's listener is closed " +
			"(transport-error death, as a SIGKILL looks to the router) and the stream replays; warm rates " +
			"count obligations answered by cache or durable store; with replication the survivor serves " +
			"the dead shard's slice from its replicated store instead of re-proving it",
	}
	for _, replicated := range []bool{true, false} {
		c, dead, err := runFailoverCase(cat, stream, chunk, replicated)
		if err != nil {
			return rep, fmt.Errorf("replicated=%v: %w", replicated, err)
		}
		rep.DeadShard = dead
		rep.Cases = append(rep.Cases, c)
	}
	return rep, nil
}

// warmRate is the fraction of obligation lookups answered without solver
// work: cache hits plus durable-store hits over all lookups (every store
// lookup follows a cache miss, so the sum never exceeds the total).
func warmRate(d engine.StatsSnapshot) float64 {
	total := d.ObligationHits + d.ObligationMisses
	if total == 0 {
		return 0
	}
	return float64(d.ObligationHits+d.StoreHits) / float64(total)
}

func runFailoverCase(cat *schema.Catalog, stream []server.BatchPairJSON, chunk int, replicated bool) (FailoverCase, string, error) {
	c := FailoverCase{Replicated: replicated}

	// Listeners first: each shard must know its peer's URL at construction
	// time to tail it, so addresses exist before either server does.
	var listeners [2]net.Listener
	var urls [2]string
	ids := [2]string{"s1", "s2"}
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return c, "", err
		}
		defer l.Close()
		listeners[i] = l
		urls[i] = "http://" + l.Addr().String()
	}

	var servers [2]*server.Server
	for i := range servers {
		dir, err := os.MkdirTemp("", "spes-bench-failover-")
		if err != nil {
			return c, "", err
		}
		defer os.RemoveAll(dir)
		cfg := server.Config{
			Catalog:      cat,
			ShardID:      ids[i],
			BatchWorkers: 1,
			StorePath:    dir,
		}
		if replicated {
			peer := 1 - i
			cfg.ReplicateFrom = []server.ReplicaOrigin{{ID: ids[peer], URL: urls[peer]}}
			cfg.ReplicateInterval = 5 * time.Millisecond
		}
		s, err := server.New(cfg)
		if err != nil {
			return c, "", err
		}
		servers[i] = s
		go s.Serve(listeners[i])
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		}()
	}

	rt := cluster.NewRouter(cluster.Config{
		Catalog:       cat,
		ProbeInterval: -1,
		ReprobeBase:   -1, // the victim never returns; keep the study quiet
		Shards: []cluster.Shard{
			{ID: ids[0], URL: urls[0]},
			{ID: ids[1], URL: urls[1]},
		},
	})
	front := httptest.NewServer(rt.Handler())
	defer func() {
		front.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	}()

	// Round 1 (cold): fill caches and stores.
	if _, _, err := pushStream(front.URL, stream, chunk); err != nil {
		return c, "", fmt.Errorf("warm-up round: %w", err)
	}
	for _, s := range servers {
		s.Store().Flush()
	}
	if replicated {
		if err := waitReplicated(servers); err != nil {
			return c, "", err
		}
	}

	// Round 2 (steady state): the pre-kill measurement.
	var before [2]engine.StatsSnapshot
	for i, s := range servers {
		before[i] = s.Engine().Stats()
	}
	steadyVerdicts, steadyWall, err := pushStream(front.URL, stream, chunk)
	if err != nil {
		return c, "", fmt.Errorf("steady round: %w", err)
	}
	var steady [2]engine.StatsSnapshot
	for i, s := range servers {
		steady[i] = s.Engine().Stats()
		steady[i].Sub(before[i])
	}

	// Kill the busier shard — the worse case for the successor. Steady
	// state appends nothing new, so replication is already caught up.
	victim := 0
	if steady[1].Pairs > steady[0].Pairs {
		victim = 1
	}
	survivor := 1 - victim
	c.SteadyWallMS = ms(steadyWall)
	c.DeadSteadyWarmRate = warmRate(steady[victim])
	c.OrphanedPairs = steady[victim].Pairs
	if replicated {
		c.ReplicationCaughtUp = replicationDrained(servers)
	}
	listeners[victim].Close()
	{
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		servers[victim].Shutdown(ctx)
		cancel()
	}

	// Round 3 (post-kill): the survivor absorbs the orphaned slice.
	preKill := servers[survivor].Engine().Stats()
	postVerdicts, postWall, err := pushStream(front.URL, stream, chunk)
	if err != nil {
		return c, "", fmt.Errorf("post-kill round: %w", err)
	}
	d := servers[survivor].Engine().Stats()
	d.Sub(preKill)

	c.PostKillWallMS = ms(postWall)
	if steadyWall > 0 {
		c.WallRatio = float64(postWall) / float64(steadyWall)
	}
	c.SuccessorWarmRate = warmRate(d)
	c.WarmRateGap = c.DeadSteadyWarmRate - c.SuccessorWarmRate
	c.SuccessorStoreHits = d.StoreHits
	c.SuccessorWitnessHits = d.WitnessHits
	c.VerdictsIdentical = equalSeq(steadyVerdicts, postVerdicts)
	c.HitRateWithin5Pts = c.WarmRateGap <= 0.05
	c.WallWithin150Pct = c.WallRatio <= 1.5
	c.RouterFailovers = routerFailovers(front.URL)
	return c, ids[victim], nil
}

// waitReplicated blocks until every shard's tailer has drained its peer's
// durable log (position == the peer's durable byte count).
func waitReplicated(servers [2]*server.Server) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if replicationDrained(servers) {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("replication did not catch up within 60s")
}

func replicationDrained(servers [2]*server.Server) bool {
	for i, s := range servers {
		peerBytes := servers[1-i].Store().Snapshot().Bytes
		snaps := s.ReplicationSnapshot()
		if len(snaps) != 1 {
			return false
		}
		if !snaps[0].CaughtUp || snaps[0].Position != peerBytes {
			return false
		}
	}
	return true
}

// routerFailovers reads the router's failover count off its own stats
// endpoint; the count is informational, so errors degrade to zero.
func routerFailovers(frontURL string) int64 {
	resp, err := http.Get(frontURL + "/v1/cluster/stats")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var cs cluster.ClusterStats
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		return 0
	}
	return cs.Router.Failovers
}
